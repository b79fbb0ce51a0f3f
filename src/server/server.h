// QueryServer: the wire-protocol serving front-end over a shared
// Warehouse. Accepts SQL over HTTP and streams the result through a
// Warehouse::QueryCursor, so server-side resident result bytes stay
// O(cursor window × batch) regardless of result size, and a slow client
// back-pressures morsel dispatch instead of buffering the result.
//
// Protocol
//   POST /query        body = the SQL text. Admission headers:
//     X-Lazyetl-Priority          low | normal | high  (default normal)
//     X-Lazyetl-Client-Id         fair-share tenant key (default "")
//     X-Lazyetl-Queue-Timeout-Ms  admission-queue timeout; < 0 = never
//     X-Lazyetl-Format            ndjson (default) | frames
//   A pre-stream failure (parse/bind error, unknown table, admission
//   timeout) is a plain HTTP error with a JSON body {"error","code"}:
//   400 invalid/parse/bind, 404 not-found, 503 deadline-exceeded,
//   500 otherwise. On success the response is a chunked stream of
//   frames; `ndjson` frames are single JSON lines, `frames` are
//   [u32 little-endian payload length][payload] with identical payloads:
//     {"type":"schema","columns":[{"name","type"},...]}   first
//     {"type":"batch","rows":[[...],[...]]}               0 or more
//     {"type":"end","rows":N,"ticket":T,"queue_wait_seconds":W,
//      "peak_buffered_bytes":B}                           success
//     {"type":"error","code":"DEADLINE_EXCEEDED",...}     failure mid-
//   stream (the HTTP 200 is already committed by then — typed status
//   codes travel in the frame instead).
//   GET /stats         warehouse + serving counters as JSON.
//   GET /healthz       200 "ok".
//
// Lifecycle: Start binds/listens and spawns the accept loop;
// connections are served one thread each. The accept loop joins
// finished connection threads as new connections arrive, so an exited
// thread never keeps its stack mapped for the daemon's lifetime; Stop
// joins the rest and closes the listener. A connection whose thread
// cannot be created is closed and counted in queries_rejected. Every
// cursor is closed on every exit path (clean end, mid-stream error,
// client disconnect), so an abandoned stream releases its admission
// ticket, budget carve and spill directory exactly once.

#ifndef LAZYETL_SERVER_SERVER_H_
#define LAZYETL_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "common/status.h"
#include "core/warehouse.h"
#include "server/http.h"

namespace lazyetl::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = OS-assigned ephemeral port; see port() after Start
  size_t max_request_bytes = 1 << 20;
};

// Racy snapshot of the serving counters.
struct ServerCounters {
  uint64_t connections = 0;
  uint64_t queries_ok = 0;        // streams that reached the end frame
  uint64_t queries_rejected = 0;  // pre-stream failures (HTTP error)
  uint64_t mid_stream_errors = 0; // error frames emitted after the 200
  uint64_t batches_streamed = 0;
  uint64_t rows_streamed = 0;
};

class QueryServer {
 public:
  // `warehouse` must outlive the server and is shared with any direct
  // Query() callers — admission is one scheduler either way.
  explicit QueryServer(core::Warehouse* warehouse, ServerOptions options = {});
  ~QueryServer();  // implies Stop()

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  Status Start();
  void Stop();

  // The bound port (valid after a successful Start).
  int port() const { return port_; }

  ServerCounters counters() const;

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  // Handles one request; returns false when the connection must close
  // (write failure or protocol error).
  bool HandleRequest(const HttpRequest& req, int fd);
  bool HandleQuery(const HttpRequest& req, HttpResponseWriter* writer);
  bool HandleStats(HttpResponseWriter* writer);

  core::Warehouse* warehouse_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  // One entry per connection thread; `done` (guarded by conn_mu_) is set
  // by the thread as it exits, and the accept loop joins and erases done
  // entries. A list, so each thread can hold its own entry's iterator.
  struct Connection {
    std::thread thread;
    bool done = false;
  };
  std::mutex conn_mu_;
  std::list<Connection> connections_;

  std::atomic<uint64_t> connections_total_{0};
  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_rejected_{0};
  std::atomic<uint64_t> mid_stream_errors_{0};
  std::atomic<uint64_t> batches_streamed_{0};
  std::atomic<uint64_t> rows_streamed_{0};
};

}  // namespace lazyetl::server

#endif  // LAZYETL_SERVER_SERVER_H_
