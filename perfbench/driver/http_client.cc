#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"
#include "measure.h"

namespace perfbench {

using lazyetl::Result;
using lazyetl::Status;

namespace {

std::string Lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

// Index one past the JSON value (array or string) starting at `i`, or
// npos when it is unterminated.
size_t SkipJsonArray(const std::string& s, size_t i) {
  int depth = 0;
  bool in_string = false;
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '[') {
      ++depth;
    } else if (c == ']') {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

bool NumberAfter(const std::string& frame, const char* key, double* out) {
  size_t k = frame.find(key);
  if (k == std::string::npos) return false;
  const char* begin = frame.c_str() + k + std::strlen(key);
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin;
}

}  // namespace

bool DecodeNdjson(const std::string& body, StreamedResponse* out) {
  size_t start = 0;
  while (start < body.size()) {
    size_t nl = body.find('\n', start);
    if (nl == std::string::npos) return false;
    std::string frame = body.substr(start, nl - start);
    start = nl + 1;
    if (frame.rfind("{\"type\":\"batch\"", 0) == 0) {
      size_t i = frame.find("\"rows\":[");
      if (i == std::string::npos) return false;
      i += 8;
      while (i < frame.size() && frame[i] == '[') {
        size_t j = SkipJsonArray(frame, i);
        if (j == std::string::npos) return false;
        out->rows.push_back(frame.substr(i, j - i));
        i = j;
        if (i < frame.size() && frame[i] == ',') ++i;
      }
    } else if (frame.rfind("{\"type\":\"end\"", 0) == 0) {
      double rows = 0;
      if (!NumberAfter(frame, "\"rows\":", &rows)) return false;
      out->saw_end = true;
      out->end_rows = static_cast<uint64_t>(rows);
      NumberAfter(frame, "\"queue_wait_seconds\":", &out->queue_wait_seconds);
    } else if (frame.rfind("{\"type\":\"error\"", 0) == 0) {
      out->error = frame;
    } else if (frame.rfind("{\"type\":\"schema\"", 0) != 0) {
      return false;
    }
  }
  return true;
}

Status HttpConnection::Connect(const std::string& host, int port) {
  Close();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad IPv4 address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IOError("connect: " + std::string(strerror(err)));
  }
  fd_ = fd;
  host_ = host;
  buf_.clear();
  pos_ = 0;
  return Status::OK();
}

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status HttpConnection::Send(const std::string& request) {
  size_t off = 0;
  while (off < request.size()) {
    ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return Status::IOError("send: " + std::string(strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status HttpConnection::Fill() {
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  char tmp[16384];
  while (true) {
    ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return Status::IOError(n == 0 ? "connection closed by server"
                                    : "recv: " + std::string(strerror(errno)));
    }
    buf_.append(tmp, static_cast<size_t>(n));
    return Status::OK();
  }
}

Result<std::string> HttpConnection::ReadLine() {
  while (true) {
    size_t crlf = buf_.find("\r\n", pos_);
    if (crlf != std::string::npos) {
      std::string line = buf_.substr(pos_, crlf - pos_);
      pos_ = crlf + 2;
      return line;
    }
    if (buf_.size() - pos_ > (1u << 16)) {
      return Status::InvalidArgument("response line too long");
    }
    LAZYETL_RETURN_NOT_OK(Fill());
  }
}

Result<std::string> HttpConnection::ReadBytes(size_t n) {
  while (buf_.size() - pos_ < n) LAZYETL_RETURN_NOT_OK(Fill());
  std::string out = buf_.substr(pos_, n);
  pos_ += n;
  return out;
}

Result<HttpConnection::Head> HttpConnection::ReadHead(double* first_byte) {
  if (pos_ == buf_.size()) LAZYETL_RETURN_NOT_OK(Fill());
  *first_byte = Now();
  LAZYETL_ASSIGN_OR_RETURN(std::string status_line, ReadLine());
  Head head;
  if (status_line.rfind("HTTP/1.", 0) != 0 || status_line.size() < 12) {
    return Status::InvalidArgument("bad status line: " + status_line);
  }
  head.status = std::atoi(status_line.c_str() + 9);
  while (true) {
    LAZYETL_ASSIGN_OR_RETURN(std::string line, ReadLine());
    if (line.empty()) break;
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = Lower(line.substr(0, colon));
    std::string value = Lower(line.substr(colon + 1));
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (name == "transfer-encoding" && value == "chunked") head.chunked = true;
    if (name == "connection" && value == "close") head.close = true;
    if (name == "content-length") {
      head.content_length = std::strtoull(value.c_str(), nullptr, 10);
    }
  }
  return head;
}

Result<std::string> HttpConnection::ReadBody(const Head& head) {
  if (!head.chunked) return ReadBytes(head.content_length);
  std::string body;
  while (true) {
    LAZYETL_ASSIGN_OR_RETURN(std::string size_line, ReadLine());
    size_t size = std::strtoull(size_line.c_str(), nullptr, 16);
    if (size == 0) {
      // Trailer section: empty line ends the message.
      while (true) {
        LAZYETL_ASSIGN_OR_RETURN(std::string trailer, ReadLine());
        if (trailer.empty()) return body;
      }
    }
    LAZYETL_ASSIGN_OR_RETURN(std::string chunk, ReadBytes(size));
    body += chunk;
    LAZYETL_ASSIGN_OR_RETURN(std::string crlf, ReadLine());
    if (!crlf.empty()) return Status::InvalidArgument("bad chunk framing");
  }
}

Result<StreamedResponse> HttpConnection::Query(const std::string& sql) {
  if (fd_ < 0) return Status::IOError("not connected");
  std::string request = "POST /query HTTP/1.1\r\nHost: " + host_ +
                        "\r\nContent-Type: text/plain\r\nContent-Length: " +
                        std::to_string(sql.size()) + "\r\n\r\n" + sql;
  StreamedResponse out;
  out.sent = Now();
  LAZYETL_RETURN_NOT_OK(Send(request));
  LAZYETL_ASSIGN_OR_RETURN(Head head, ReadHead(&out.first_byte));
  LAZYETL_ASSIGN_OR_RETURN(std::string body, ReadBody(head));
  out.done = Now();
  out.http_status = head.status;
  out.body_bytes = body.size();
  if (head.close) Close();
  if (head.status != 200) {
    out.error = body.empty() ? "HTTP " + std::to_string(head.status) : body;
    return out;
  }
  if (!DecodeNdjson(body, &out)) {
    return Status::InvalidArgument("malformed NDJSON stream");
  }
  return out;
}

}  // namespace perfbench
