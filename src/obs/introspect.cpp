#include "obs/introspect.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "obs/build_info.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"

namespace idf::obs {

namespace {

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; everything else
/// (the registry's dots, mostly) becomes '_'.
std::string SanitizeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

/// Splits a registry name "base{k=v,k2=v2}" into a sanitized base and a
/// rendered Prometheus label block (`{k="v",k2="v2"}`, possibly empty).
void SplitTaggedName(const std::string& name, std::string* base,
                     std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = SanitizeName(name);
    labels->clear();
    return;
  }
  *base = SanitizeName(name.substr(0, brace));
  std::string out = "{";
  const std::string inner = name.substr(brace + 1, name.size() - brace - 2);
  size_t pos = 0;
  bool first = true;
  while (pos < inner.size()) {
    size_t comma = inner.find(',', pos);
    if (comma == std::string::npos) comma = inner.size();
    const std::string pair = inner.substr(pos, comma - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      if (!first) out += ',';
      first = false;
      out += SanitizeName(pair.substr(0, eq));
      out += "=\"";
      out += JsonEscape(pair.substr(eq + 1));  // escapes " and backslash
      out += '"';
    }
    pos = comma + 1;
  }
  out += '}';
  *labels = first ? "" : out;
}

std::string PromNumber(double v) {
  if (v != v) return "NaN";
  if (v == std::numeric_limits<double>::infinity()) return "+Inf";
  if (v == -std::numeric_limits<double>::infinity()) return "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Merges a label block with an extra `le` label for bucket series.
std::string WithLe(const std::string& labels, const std::string& le) {
  if (labels.empty()) return "{le=\"" + le + "\"}";
  std::string out = labels;
  out.insert(out.size() - 1, ",le=\"" + le + "\"");
  return out;
}

}  // namespace

std::string PrometheusText(const std::vector<MetricSnapshot>& snapshot) {
  std::string out;
  out.reserve(snapshot.size() * 64);
  // One # TYPE line per base name; the snapshot is sorted, and tagged
  // variants of one base (`mem_evictions`, `mem_evictions{executor="1"}`)
  // sort adjacently, so tracking the last emitted base suffices.
  std::string last_typed;
  for (const MetricSnapshot& s : snapshot) {
    std::string base, labels;
    SplitTaggedName(s.name, &base, &labels);
    const char* type = s.kind == MetricKind::kCounter   ? "counter"
                       : s.kind == MetricKind::kGauge   ? "gauge"
                                                        : "histogram";
    if (base != last_typed) {
      out += "# TYPE " + base + " " + type + "\n";
      last_typed = base;
    }
    switch (s.kind) {
      case MetricKind::kCounter:
        out += base + labels + " " + std::to_string(s.counter_value) + "\n";
        break;
      case MetricKind::kGauge:
        out += base + labels + " " + PromNumber(s.gauge_value) + "\n";
        break;
      case MetricKind::kHistogram: {
        // Cumulative buckets from the registry's explicit non-cumulative
        // (upper_bound, count) pairs, closed by the mandatory +Inf bucket.
        uint64_t cumulative = 0;
        for (const auto& [bound, count] : s.buckets) {
          cumulative += count;
          out += base + "_bucket" + WithLe(labels, PromNumber(bound)) + " " +
                 std::to_string(cumulative) + "\n";
        }
        out += base + "_bucket" + WithLe(labels, "+Inf") + " " +
               std::to_string(s.count) + "\n";
        out += base + "_sum" + labels + " " + PromNumber(s.sum) + "\n";
        out += base + "_count" + labels + " " + std::to_string(s.count) + "\n";
        break;
      }
    }
  }
  return out;
}

IntrospectionServer& IntrospectionServer::Global() {
  static IntrospectionServer* server = new IntrospectionServer();
  return *server;
}

IntrospectionServer::~IntrospectionServer() { Stop(); }

Result<uint16_t> IntrospectionServer::Start(uint16_t port) {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (running()) {
    return Status::Unavailable("introspection server already running on port " +
                               std::to_string(port_));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Unavailable("cannot bind 127.0.0.1:" +
                               std::to_string(port));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::Unavailable("listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&IntrospectionServer::ServeLoop, this);
  IDF_LOG_INFO("introspection server listening on 127.0.0.1:%u "
               "(/metrics /events /residency /healthz)",
               port_);
  return port_;
}

void IntrospectionServer::StartFromEnv() {
  const char* env = std::getenv("IDF_OBS_PORT");
  if (env == nullptr || env[0] == '\0') return;
  IntrospectionServer& server = Global();
  if (server.running()) return;
  char* end = nullptr;
  const long port = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || port < 0 || port > 65535) {
    IDF_LOG_WARN("ignoring unparsable IDF_OBS_PORT='%s'", env);
    return;
  }
  Result<uint16_t> started = server.Start(static_cast<uint16_t>(port));
  if (!started.ok()) {
    IDF_LOG_WARN("introspection server failed to start: %s",
                 started.status().message().c_str());
  }
}

void IntrospectionServer::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!running()) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void IntrospectionServer::AddJsonHandler(const std::string& path,
                                         std::function<std::string()> fn) {
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  handlers_[path] = std::move(fn);
}

void IntrospectionServer::AddPrefixHandler(
    const std::string& prefix, std::function<std::string(const std::string&)> fn) {
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  prefix_handlers_[prefix] = std::move(fn);
}

void IntrospectionServer::ServeLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stop_
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    HandleConnection(conn);
    ::close(conn);
  }
}

void IntrospectionServer::HandleConnection(int fd) {
  char buf[4096];
  const ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return;
  buf[n] = '\0';
  // "GET /path?query HTTP/1.x" — we only care about the method and path.
  std::string target;
  if (std::strncmp(buf, "GET ", 4) == 0) {
    const char* start = buf + 4;
    const char* end = std::strchr(start, ' ');
    if (end != nullptr) target.assign(start, end);
  }
  std::string query;
  std::string path = target;
  const size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }

  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
  int status = 200;
  const char* reason = "OK";
  if (target.empty()) {
    status = 400;
    reason = "Bad Request";
    body = "only GET is served here\n";
  } else if (path == "/healthz") {
    // Liveness plus build identity: which binary is this, exactly.
    content_type = "application/json";
    body = BuildInfoJson() + "\n";
  } else if (path == "/metrics") {
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = PrometheusText(Registry::Global().Snapshot());
  } else if (path == "/events") {
    // n= is advisory: malformed values fall back to the default, oversize
    // values clamp to the ring capacity — a bad scrape never errors or
    // over-allocates.
    size_t limit = 512;
    if (query.rfind("n=", 0) == 0) {
      const long parsed = std::strtol(query.c_str() + 2, nullptr, 10);
      if (parsed > 0) limit = static_cast<size_t>(parsed);
    }
    limit = std::min(limit, FlightRecorder::kCapacity);
    content_type = "application/x-ndjson";
    body = FlightRecorder::Global().ToJsonl(limit);
  } else {
    std::function<std::string()> handler;
    std::function<std::string(const std::string&)> prefix_handler;
    {
      std::lock_guard<std::mutex> lock(handlers_mutex_);
      auto it = handlers_.find(path);
      if (it != handlers_.end()) {
        handler = it->second;
      } else {
        // Longest matching prefix wins (std::map iterates sorted, so a
        // later match is longer or disjoint).
        for (const auto& [prefix, fn] : prefix_handlers_) {
          if (path.rfind(prefix, 0) == 0) prefix_handler = fn;
        }
      }
    }
    std::string handled;
    if (handler) {
      handled = handler();
    } else if (prefix_handler) {
      handled = prefix_handler(path);
    }
    if (!handled.empty()) {
      content_type = "application/json";
      body = std::move(handled);
    } else {
      status = 404;
      reason = "Not Found";
      body = "unknown path; try /metrics /events /residency /queries "
             "/healthz\n";
    }
  }

  std::string response = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  size_t off = 0;
  while (off < response.size()) {
    const ssize_t sent = ::send(fd, response.data() + off,
                                response.size() - off, MSG_NOSIGNAL);
    if (sent <= 0) break;
    off += static_cast<size_t>(sent);
  }
}

}  // namespace idf::obs
