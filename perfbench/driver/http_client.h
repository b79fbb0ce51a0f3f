// A persistent HTTP/1.1 client for the QueryServer wire protocol, as a
// pooled client would use it: one connection carries many POST /query
// requests, each answered by a chunked NDJSON stream that is decoded
// into per-row JSON texts. The server's own client helper opens a fresh
// connection per request, which is the one-shot path; this one keeps the
// connection so the keep-alive path is what gets measured.

#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace perfbench {

struct StreamedResponse {
  int http_status = 0;
  std::vector<std::string> rows;  // "[v,v,...]" per row, arrival order
  bool saw_end = false;
  uint64_t end_rows = 0;
  double queue_wait_seconds = 0;
  std::string error;  // error frame or non-200 body ("" = none)
  uint64_t body_bytes = 0;
  // Client-side timestamps (perfbench::Now): request send started, first
  // response byte received, chunk terminator received.
  double sent = 0, first_byte = 0, done = 0;
};

class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection() { Close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  lazyetl::Status Connect(const std::string& host, int port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // POST /query on this connection. Transport failures close the
  // connection and fail the Result; HTTP and in-stream errors come back in
  // StreamedResponse::error.
  lazyetl::Result<StreamedResponse> Query(const std::string& sql);

 private:
  struct Head {
    int status = 0;
    bool chunked = false;
    bool close = false;
    size_t content_length = 0;
  };
  lazyetl::Status Send(const std::string& request);
  lazyetl::Status Fill();  // appends at least one byte to buf_
  lazyetl::Result<std::string> ReadLine();
  lazyetl::Result<std::string> ReadBytes(size_t n);
  lazyetl::Result<Head> ReadHead(double* first_byte);
  lazyetl::Result<std::string> ReadBody(const Head& head);

  int fd_ = -1;
  std::string host_;
  std::string buf_;  // received, not yet consumed
  size_t pos_ = 0;   // consumed prefix of buf_
};

// Decodes the NDJSON frames of a 200 stream into `out` (rows, end frame,
// error frame). Returns false on a malformed frame.
bool DecodeNdjson(const std::string& body, StreamedResponse* out);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
