// BouquetServer: the async epoll serving layer over BouquetService.
//
// Thread architecture (one process):
//
//   acceptor ──┬─> reactor 0 (epoll) ──┐
//              ├─> reactor 1 (epoll) ──┼──> RequestRouter ──> service pool
//              └─> ...                 │    (batching, WFQ,    (RunBatch /
//        round-robin fd handoff        │     token buckets,     safe plan)
//                                      │     shedding)              │
//              reactor outboxes <──────┴────────── responses ───────┘
//
// Reactors own their connections exclusively (no per-connection locks);
// cross-thread response delivery goes through a per-reactor outbox that any
// thread may append to before waking the reactor's epoll loop. The router
// decides each QUERY's fate: batch (normal), reject (throttled/draining),
// or shed to the service's precompiled MSO-safe plan (DEGRADED response)
// when the backlog bound is hit — so queue depth stays bounded and overload
// degrades per-request cost, never availability.
//
// Live observability: METRICS and TRACE_DUMP frames serve the Prometheus
// text export and the tracer's JSONL over the wire (the /metrics endpoint,
// rather than the old dump-on-exit), and the span taxonomy gains net.accept
// / net.request / net.batch.
//
// Shutdown: RequestShutdown() (any thread, including a reactor handling a
// SHUTDOWN frame) flags the supervisor; Wait() performs the graceful drain:
// stop accepting -> router drain (in-flight batches finish, queued requests
// answered) -> reactor write-flush grace -> join -> optional trace export.

#ifndef BOUQUET_NET_SERVER_H_
#define BOUQUET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/router.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query_spec.h"
#include "service/service.h"

namespace bouquet {
namespace net {

struct ServerOptions {
  uint16_t port = 0;  ///< 0 = ephemeral (recover via port())
  int num_reactors = 2;
  int listen_backlog = 128;
  uint32_t max_payload = kMaxPayloadBytes;
  RouterOptions router;
  /// JSONL trace export written during graceful shutdown (empty = off).
  std::string trace_path;
  /// Borrowed observability sinks (may be null; typically the same ones
  /// handed to the BouquetService).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

class BouquetServer {
 public:
  /// The service (and its catalog) must outlive the server.
  BouquetServer(BouquetService* service, ServerOptions options);
  ~BouquetServer();
  BouquetServer(const BouquetServer&) = delete;
  BouquetServer& operator=(const BouquetServer&) = delete;

  /// Makes `query.name` invocable over the wire. Callable before or after
  /// Start (the registry is reader-writer locked).
  Status RegisterTemplate(const QuerySpec& query);

  /// Binds, then spawns the acceptor and reactor threads.
  Status Start();

  /// The bound port (valid after Start).
  uint16_t port() const { return port_; }

  /// Flags the supervisor to begin graceful shutdown. Nonblocking; safe
  /// from any thread, including reactors.
  void RequestShutdown();

  /// Blocks until shutdown is requested, then performs the graceful drain
  /// and join. Safe to call from multiple threads; exactly one performs the
  /// teardown.
  void Wait();

  /// Outcome of the final trace export to ServerOptions::trace_path: Ok
  /// until a shutdown has written it, the write error if it failed.
  Status trace_export_status() const;

  const RequestRouter& router() const { return *router_; }

 private:
  struct Reactor {
    int index = 0;
    EventLoop loop;
    std::thread thread;
    // Reactor-thread-only state.
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
    // Cross-thread handoff: accepted fds and outbound bytes.
    Mutex mu;
    std::deque<int> pending_accepts GUARDED_BY(mu);
    std::deque<std::pair<uint64_t, std::vector<uint8_t>>> outbox
        GUARDED_BY(mu);
    std::atomic<bool> stop{false};
  };

  void AcceptorLoop();
  void ReactorLoop(Reactor& reactor);
  void AdoptPending(Reactor& reactor);
  void DrainOutbox(Reactor& reactor);
  void HandleFrame(Reactor& reactor, Connection& conn, const Frame& frame);
  void HandleQuery(Reactor& reactor, Connection& conn, const Frame& frame);
  void CloseConnection(Reactor& reactor, uint64_t conn_id);
  /// Arms/disarms EPOLLOUT to match conn.want_write(). False when the
  /// interest could not be changed; the caller must then close the
  /// connection, which could otherwise never be flushed.
  bool UpdateWriteInterest(Reactor& reactor, Connection& conn);
  /// Reactor-thread send: queue + flush + write-interest update.
  void SendNow(Reactor& reactor, Connection& conn,
               std::vector<uint8_t> bytes);
  void SendError(Reactor& reactor, Connection& conn, uint64_t request_id,
                 WireError code, const std::string& message);

  /// Thread-safe response delivery into a reactor's outbox.
  void SendToConn(int reactor_index, uint64_t conn_id,
                  std::vector<uint8_t> bytes);

  /// Router callbacks.
  void ExecuteBatch(const std::string& template_name,
                    std::vector<RoutedRequest> batch);
  void ShedToSafePlan(RoutedRequest request);

  bool LookupTemplate(const std::string& name, QuerySpec* out) const;
  void DoShutdown();

  BouquetService* const service_;
  const ServerOptions options_;

  struct Instruments {
    obs::Counter* connections = nullptr;
    obs::Gauge* connections_open = nullptr;
    obs::Counter* frames = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* responses = nullptr;
    obs::Counter* error_responses = nullptr;
    obs::Counter* degraded = nullptr;
    obs::Histogram* request_latency = nullptr;
  };
  Instruments ins_;

  mutable SharedMutex registry_mu_;
  std::unordered_map<std::string, QuerySpec> registry_
      GUARDED_BY(registry_mu_);

  std::unique_ptr<RequestRouter> router_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::thread acceptor_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<int> open_conns_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_accepting_{false};

  // Supervisor handshake: RequestShutdown flags, Wait tears down once.
  mutable Mutex state_mu_;
  CondVar state_cv_;
  bool shutdown_requested_ GUARDED_BY(state_mu_) = false;
  bool teardown_claimed_ GUARDED_BY(state_mu_) = false;
  bool shutdown_done_ GUARDED_BY(state_mu_) = false;
  Status trace_export_status_ GUARDED_BY(state_mu_);
};

}  // namespace net
}  // namespace bouquet

#endif  // BOUQUET_NET_SERVER_H_
