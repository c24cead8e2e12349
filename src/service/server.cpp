#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace tcast::service {
namespace {

bool write_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool fill_sockaddr(const std::string& path, sockaddr_un& addr) {
  if (path.size() + 1 > sizeof(addr.sun_path)) return false;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

// ---- UnixServer ----------------------------------------------------------

UnixServer::UnixServer(TcastService& service, std::string socket_path)
    : service_(&service), path_(std::move(socket_path)) {}

UnixServer::~UnixServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (const auto& conn : conns_) close_connection(*conn);
  if (!path_.empty()) ::unlink(path_.c_str());
}

bool UnixServer::start(std::string* error) {
  sockaddr_un addr;
  if (!fill_sockaddr(path_, addr)) {
    if (error) *error = "socket path too long: " + path_;
    return false;
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error) *error = std::strerror(errno);
    return false;
  }
  ::unlink(path_.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error) *error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  return true;
}

void UnixServer::run() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& conn : conns_) {
      fds.push_back(pollfd{conn->fd, POLLIN, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), 100);
    if (ready < 0 && errno != EINTR) break;

    if (ready > 0) {
      // Service existing connections before accepting: accept_one() grows
      // conns_, and fds only covers the connections that were polled.
      std::vector<std::shared_ptr<Connection>> alive;
      alive.reserve(conns_.size());
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        const auto revents = fds[i + 1].revents;
        bool keep = true;
        if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          keep = service_readable(conns_[i]);
        }
        if (keep) {
          alive.push_back(conns_[i]);
        } else {
          close_connection(*conns_[i]);
        }
      }
      conns_ = std::move(alive);
      if ((fds[0].revents & POLLIN) != 0) accept_one();
    }

    if (service_->shutting_down()) {
      // Flush queued work to typed kShuttingDown responses. Callbacks write
      // their responses before they return, and drain_all() returns after
      // the last callback, so every response is out before the fds close.
      service_->drain_all();
      break;
    }
  }
}

void UnixServer::accept_one() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  conns_.push_back(std::move(conn));
}

bool UnixServer::service_readable(const std::shared_ptr<Connection>& conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      conn->reader.feed(buf, static_cast<std::size_t>(n));
      if (n == static_cast<ssize_t>(sizeof(buf))) continue;
      break;
    }
    if (n == 0) return false;  // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    return false;
  }
  if (conn->reader.error()) return false;

  while (auto payload = conn->reader.next()) {
    std::uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      seq = conn->next_submit++;
    }
    const auto req = Request::parse(*payload);
    if (!req) {
      Response bad;
      bad.status = StatusCode::kInvalidArgument;
      bad.message = "unparseable request: " + *payload;
      enqueue_response(conn, seq, bad);
      continue;
    }
    // The callback may fire on this thread (control verbs) or a drain
    // thread later; the shared_ptr keeps the connection state alive even
    // if the socket closes first.
    service_->submit(*req, [conn, seq](const Response& resp) {
      enqueue_response(conn, seq, resp);
    });
  }
  return true;
}

void UnixServer::enqueue_response(const std::shared_ptr<Connection>& conn,
                                  std::uint64_t seq, const Response& resp) {
  std::string wire;
  append_frame(wire, resp.encode());

  std::lock_guard<std::mutex> lock(conn->mu);
  if (!conn->writable) return;
  conn->out_of_order.emplace(seq, std::move(wire));
  // Flush the in-order prefix: responses leave in request order no matter
  // which drain thread finished first.
  while (true) {
    const auto it = conn->out_of_order.find(conn->next_send);
    if (it == conn->out_of_order.end()) break;
    if (!write_all(conn->fd, it->second.data(), it->second.size())) {
      // The peer is gone; the fd stays open until the loop closes it.
      conn->writable = false;
      conn->out_of_order.clear();
      return;
    }
    conn->out_of_order.erase(it);
    ++conn->next_send;
  }
}

void UnixServer::close_connection(Connection& conn) {
  std::lock_guard<std::mutex> lock(conn.mu);
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
  conn.writable = false;
  conn.out_of_order.clear();
}

// ---- UnixClient ----------------------------------------------------------

UnixClient::UnixClient(std::string socket_path)
    : path_(std::move(socket_path)) {}

UnixClient::~UnixClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool UnixClient::connect(std::string* error) {
  sockaddr_un addr;
  if (!fill_sockaddr(path_, addr)) {
    if (error) *error = "socket path too long: " + path_;
    return false;
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error) *error = std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (error) *error = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

std::optional<Response> UnixClient::call(const Request& req) {
  if (fd_ < 0) return std::nullopt;
  std::string wire;
  append_frame(wire, req.encode());
  if (!write_all(fd_, wire.data(), wire.size())) return std::nullopt;

  for (;;) {
    if (auto payload = reader_.next()) return Response::parse(*payload);
    if (reader_.error()) return std::nullopt;
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return std::nullopt;
    }
    reader_.feed(buf, static_cast<std::size_t>(n));
  }
}

std::optional<Response> UnixClient::call_with_retries(
    const Request& req, const BackoffPolicy& policy, RngStream& rng,
    std::size_t* attempts) {
  std::size_t attempt = 0;
  for (;;) {
    const auto resp = call(req);
    if (attempts) *attempts = attempt + 1;
    if (!resp) return std::nullopt;
    if (!policy.should_retry(resp->status, attempt)) return resp;
    const auto delay = policy.delay_ms(attempt, resp->retry_after_ms, rng);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    ++attempt;
  }
}

}  // namespace tcast::service
