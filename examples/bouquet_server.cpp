// The bouquet server: the Section 4.2 deployment model behind a socket.
// Form-based query templates are registered up front; clients connect over
// the length-prefixed binary wire protocol (src/net/wire.h) and send QUERY
// frames carrying only per-invocation constants. The serving path is the
// full src/net/ stack: epoll reactors, same-template request batching,
// per-tenant admission control, and MSO-safe load shedding (overflow
// requests are answered DEGRADED by the template's precompiled safe plan
// instead of being dropped).
//
// Observability is live, not dump-on-exit: METRICS frames return the
// Prometheus text exposition and TRACE_DUMP frames return the tracer's
// JSONL at any moment during serving; a graceful shutdown (SHUTDOWN frame,
// SIGINT, or SIGTERM) drains in-flight work and writes the final trace to
// --trace PATH.
//
// Modes:
//   bouquet_server --serve [--port N] [--trace PATH]
//       Serve until SIGINT/SIGTERM or a SHUTDOWN frame.
//   bouquet_server --loopback [--requests N] [--trace PATH]
//       In-process demo: starts the server on an ephemeral port, runs a
//       bursty single-template + multi-tenant + overload workload against
//       it over real sockets, prints wire-fetched metrics, then shuts down
//       over the wire. (Default mode when no flag is given.)

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void HandleSignal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  using namespace bouquet;
  using namespace bouquet::net;

  bool serve = false;
  uint16_t port = 0;
  int requests = 256;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve") {
      serve = true;
    } else if (arg == "--loopback") {
      serve = false;
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--requests" && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::printf(
          "usage: %s [--serve|--loopback] [--port N] [--requests N] "
          "[--trace PATH]\n",
          argv[0]);
      return 2;
    }
  }

  const Catalog catalog = MakeTpchCatalog(1.0);
  obs::Tracer tracer(1 << 16);
  obs::MetricsRegistry metrics;

  ServiceOptions sopts;
  sopts.num_threads = 8;
  sopts.grid_resolution = 24;
  sopts.tracer = &tracer;
  sopts.metrics = &metrics;
  BouquetService service(catalog, sopts);

  ServerOptions nopts;
  nopts.port = port;
  nopts.num_reactors = 2;
  nopts.router.batch_window_ms = 2.0;
  nopts.router.max_batch = 32;
  nopts.router.max_queue_depth = 256;
  nopts.router.max_inflight_batches = 8;
  nopts.trace_path = trace_path;
  nopts.tracer = &tracer;
  nopts.metrics = &metrics;
  BouquetServer server(&service, nopts);

  // Three "forms": same join graph, different error spaces.
  std::vector<QuerySpec> templates;
  templates.push_back(MakeEqQuery(catalog));
  templates.push_back(Make2DHQ8a(catalog));
  {
    QuerySpec narrow = MakeEqQuery(catalog);
    narrow.name = "EQ-narrow";
    narrow.error_dims[0].lo = 1e-3;
    templates.push_back(narrow);
  }
  for (const QuerySpec& t : templates) {
    const Status st = server.RegisterTemplate(t);
    if (!st.ok()) {
      std::printf("register failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  const Status started = server.Start();
  if (!started.ok()) {
    std::printf("start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("bouquet_server: %zu templates on 127.0.0.1:%u (%s mode)\n",
              templates.size(), server.port(),
              serve ? "serve" : "loopback");

  if (serve) {
    // Serve until a signal or a wire-level SHUTDOWN. The handler only sets
    // a flag; a watcher thread translates it into the graceful drain.
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    std::thread watcher([&server] {
      while (g_signal == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      server.RequestShutdown();
    });
    server.Wait();  // SHUTDOWN frames also land here
    g_signal = g_signal == 0 ? SIGTERM : g_signal;
    watcher.join();
    std::printf("drained; final metrics:\n%s",
                metrics.ExportPrometheus().c_str());
    return 0;
  }

  // ---- Loopback demo -----------------------------------------------------
  auto client_or = BlockingClient::Connect(server.port());
  if (!client_or.ok()) {
    std::printf("connect failed: %s\n",
                client_or.status().ToString().c_str());
    return 1;
  }
  BlockingClient client = std::move(client_or).value();
  if (!client.Hello().ok()) {
    std::printf("handshake failed\n");
    return 1;
  }

  // Phase 1 — bursty single-template traffic: pipeline everything, so the
  // router coalesces same-template requests and exactly one compile runs.
  uint64_t next_id = 1;
  const std::string hot = templates[0].name;
  for (int i = 0; i < requests; ++i) {
    QueryMsg q;
    q.request_id = next_id++;
    q.tenant_id = static_cast<uint32_t>(i % 4);  // multi-tenant WFQ
    q.template_name = hot;
    q.selectivities = {0.002 + 0.9 * ((i * 13) % 89) / 88.0};
    if (!client.SendFrame(EncodeQuery(q)).ok()) return 1;
  }
  int completed = 0, degraded = 0, errors = 0;
  for (int i = 0; i < requests; ++i) {
    auto frame_or = client.RecvFrame();
    if (!frame_or.ok()) {
      std::printf("recv failed: %s\n",
                  frame_or.status().ToString().c_str());
      return 1;
    }
    if (static_cast<FrameType>(frame_or.value().type) == FrameType::kError) {
      ++errors;
      continue;
    }
    ResultMsg r;
    if (!DecodeResult(frame_or.value(), &r).ok()) return 1;
    if ((r.flags & kResultCompleted) != 0) ++completed;
    if ((r.flags & kResultDegraded) != 0) ++degraded;
  }
  const ServiceStats after_burst = service.stats();
  std::printf(
      "burst: %d requests -> %d completed (%d degraded, %d errors), "
      "%llu compilations, %llu batches (mean %.1f req/batch)\n",
      requests, completed, degraded, errors,
      static_cast<unsigned long long>(after_burst.compilations),
      static_cast<unsigned long long>(after_burst.batches),
      after_burst.batches == 0
          ? 0.0
          : static_cast<double>(after_burst.batch_requests) /
                after_burst.batches);

  // Phase 2 — the other templates, interleaved across tenants.
  for (int i = 0; i < 24; ++i) {
    QueryMsg q;
    q.request_id = next_id++;
    q.tenant_id = static_cast<uint32_t>(i % 3);
    const QuerySpec& t = templates[1 + i % 2];
    q.template_name = t.name;
    q.selectivities.assign(t.NumDims(), 0.05 + 0.01 * (i % 7));
    auto out = client.Query(q);
    if (!out.ok() || !out->ok) {
      std::printf("mixed-phase query %d failed\n", i);
      return 1;
    }
  }

  // Phase 3 — live observability over the wire, mid-serving.
  auto metrics_or = client.MetricsText();
  if (!metrics_or.ok()) return 1;
  std::printf("\n--- /metrics over the wire (excerpt) ---\n");
  const std::string& text = metrics_or.value();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (line.rfind("net_", 0) == 0 || line.rfind("service_", 0) == 0) {
      std::printf("%s\n", line.c_str());
    }
    pos = eol + 1;
  }
  auto trace_or = client.TraceJsonl();
  if (!trace_or.ok()) return 1;
  std::printf("--- trace over the wire: %zu bytes of JSONL ---\n",
              trace_or.value().size());

  // Phase 4 — graceful wire-initiated shutdown (drains, exports --trace).
  if (!client.ShutdownServer().ok()) {
    std::printf("shutdown handshake failed\n");
    return 1;
  }
  server.Wait();
  if (!trace_path.empty()) {
    const Status exported = server.trace_export_status();
    if (!exported.ok()) {
      std::printf("trace export failed: %s\n", exported.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  return completed == 0 ? 1 : 0;
}
