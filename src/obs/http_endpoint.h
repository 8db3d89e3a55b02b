#ifndef SASE_OBS_HTTP_ENDPOINT_H_
#define SASE_OBS_HTTP_ENDPOINT_H_

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "util/status.h"

namespace sase {
namespace obs {

/// Minimal embedded HTTP/1.1 server for the observability endpoints:
/// /metrics (Prometheus text), /healthz and /statusz. Raw POSIX sockets,
/// one blocking accept thread, one request per connection
/// (`Connection: close`) — deliberately no keep-alive, no TLS, no request
/// body handling, because a scrape endpoint needs none of it. Binds to
/// loopback only: this is a node-local introspection port, not a public
/// listener; the DSCEP-style distributed milestone fronts it per node.
///
/// Handlers run on the accept thread, concurrently with the dispatcher —
/// register only thread-safe work (MetricsRegistry::RenderPrometheus is;
/// ShardedRuntime::Healthy is; anything touching dispatcher-only state must
/// hand back a cached copy under a mutex, which is how SaseSystem serves
/// /statusz).
class HttpEndpoint {
 public:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  using Handler = std::function<Response()>;

  HttpEndpoint() = default;
  ~HttpEndpoint() { Stop(); }

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Registers `handler` for exact path `path` (query strings are stripped
  /// before lookup; unknown paths get 404). Call before Start.
  void Handle(const std::string& path, Handler handler);

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral; read it back
  /// via port()) and starts the accept thread. Fails when the socket cannot
  /// be bound (port taken, no loopback) — never aborts.
  Status Start(int port);

  /// Stops accepting, joins the accept thread, closes the listen socket.
  /// Idempotent; also run by the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound port (the resolved one under ephemeral binding); 0 before Start.
  int port() const { return port_; }
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  std::map<std::string, Handler> handlers_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};
};

}  // namespace obs
}  // namespace sase

#endif  // SASE_OBS_HTTP_ENDPOINT_H_
