#include "src/serve/event_loop.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <utility>

#include "src/obs/log.h"
#include "src/util/io_util.h"

namespace fairem {

EventLoop::EventLoop(std::string metrics_prefix, double io_timeout_s)
    : io_timeout_s_(io_timeout_s) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  accepted_ = reg.GetCounter(metrics_prefix + ".connections_accepted");
  closed_ = reg.GetCounter(metrics_prefix + ".connections_closed");
  disconnects_ = reg.GetCounter(metrics_prefix + ".client_disconnects");
  slow_closes_ = reg.GetCounter(metrics_prefix + ".slow_client_closes");
  malformed_ = reg.GetCounter(metrics_prefix + ".malformed_frames");
  connections_ = reg.GetGauge(metrics_prefix + ".connections");
}

EventLoop::~EventLoop() {
  CloseAll();
  StopListening();
}

Status EventLoop::Listen(const std::string& socket_path) {
  FAIREM_ASSIGN_OR_RETURN(listen_fd_,
                          ListenUnix(socket_path, kListenBacklog));
  listen_path_ = socket_path;
  return Status::OK();
}

void EventLoop::StopListening() {
  if (listen_fd_ < 0) return;
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(listen_path_.c_str());
}

Result<uint64_t> EventLoop::Dial(const std::string& socket_path) {
  FAIREM_ASSIGN_OR_RETURN(int fd, ConnectUnix(socket_path));
  SetNonblocking(fd);
  return Add(fd, /*accepted=*/false);
}

uint64_t EventLoop::Add(int fd, bool accepted) {
  Stream stream;
  stream.fd = fd;
  stream.accepted = accepted;
  stream.last_activity_s = MonotonicSeconds();
  const uint64_t id = ++next_id_;
  streams_.emplace(id, std::move(stream));
  if (accepted) {
    accepted_->Increment();
    connections_->Set(static_cast<double>(++accepted_streams_));
  }
  return id;
}

void EventLoop::Accept() {
  if (listen_fd_ < 0) return;
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: retry next pass
    }
    Add(fd, /*accepted=*/true);
  }
}

bool EventLoop::Send(uint64_t stream, const std::string& type,
                     const std::string& bytes) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return false;
  it->second.out.append(EncodeServeMessage(type, bytes));
  Flush(stream);
  return true;
}

void EventLoop::Flush(uint64_t id) {
  auto it = streams_.find(id);
  if (it == streams_.end()) return;
  Stream& stream = it->second;
  while (stream.has_pending_out()) {
    ssize_t n = ::write(stream.fd, stream.out.data() + stream.out_sent,
                        stream.out.size() - stream.out_sent);
    if (n > 0) {
      stream.out_sent += static_cast<size_t>(n);
      stream.last_activity_s = MonotonicSeconds();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // EPIPE/ECONNRESET: the peer went away — a clean disconnect, not a
    // daemon error (SIGPIPE is ignored process-wide).
    End(id, StreamEnd::kPeerClosed, /*notify=*/true);
    return;
  }
  stream.out.clear();
  stream.out_sent = 0;
}

void EventLoop::Read(uint64_t id) {
  auto it = streams_.find(id);
  if (it == streams_.end()) return;
  Stream& stream = it->second;
  char buf[65536];
  bool peer_closed = false;
  for (;;) {
    ssize_t n = ::read(stream.fd, buf, sizeof(buf));
    if (n > 0) {
      stream.last_activity_s = MonotonicSeconds();
      stream.decoder.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    peer_closed = true;  // EOF, ECONNRESET and friends
    break;
  }
  // Dispatch every complete message, re-finding the stream after each
  // handler: a handler may close it.
  for (it = streams_.find(id); it != streams_.end(); it = streams_.find(id)) {
    ServeMessage message;
    Result<FrameDecoder::Next> next = it->second.decoder.TryNext(&message);
    if (!next.ok()) {
      // A corrupt length-prefixed stream cannot be resynchronized; all we
      // owe the peer is a prompt close instead of a hang.
      FAIREM_LOG(WARN) << "closing stream on malformed frame"
                       << LogKv("conn", id)
                       << LogKv("status", next.status().ToString());
      End(id, StreamEnd::kMalformed, /*notify=*/true);
      return;
    }
    if (*next == FrameDecoder::Next::kNeedMore) break;
    handlers_->on_message(id, message);
  }
  if (peer_closed) End(id, StreamEnd::kPeerClosed, /*notify=*/true);
}

double EventLoop::CloseSlowStreams(double now_s) {
  double wait_s = kMaxWaitS;
  std::vector<uint64_t> slow;
  for (auto& [id, stream] : streams_) {
    // An idle stream with no partial state is fine, however long it idles.
    if (stream.decoder.buffered() == 0 && !stream.has_pending_out()) continue;
    const double left = stream.last_activity_s + io_timeout_s_ - now_s;
    if (left < 0.0) {
      slow.push_back(id);
    } else {
      wait_s = std::min(wait_s, left);
    }
  }
  for (uint64_t id : slow) {
    FAIREM_LOG(WARN) << "closing stalled stream" << LogKv("conn", id);
    End(id, StreamEnd::kSlow, /*notify=*/true);
  }
  return wait_s;
}

void EventLoop::Close(uint64_t stream, StreamEnd why) {
  End(stream, why, /*notify=*/false);
}

void EventLoop::End(uint64_t id, StreamEnd why, bool notify) {
  auto it = streams_.find(id);
  if (it == streams_.end()) return;
  const bool accepted = it->second.accepted;
  ::close(it->second.fd);
  streams_.erase(it);
  if (accepted) {
    closed_->Increment();
    connections_->Set(static_cast<double>(--accepted_streams_));
    if (why == StreamEnd::kPeerClosed) disconnects_->Increment();
    if (why == StreamEnd::kMalformed) malformed_->Increment();
    if (why == StreamEnd::kSlow) slow_closes_->Increment();
  }
  if (notify) ended_.emplace_back(id, why);
}

void EventLoop::DeliverCloses() {
  // A close handler may end more streams (a failover send that fails);
  // those queue behind and are delivered in this same call.
  for (size_t i = 0; i < ended_.size(); ++i) {
    const auto [id, why] = ended_[i];
    if (handlers_->on_close) handlers_->on_close(id, why);
  }
  ended_.clear();
}

void EventLoop::CloseAll() {
  for (auto& [id, stream] : streams_) ::close(stream.fd);
  streams_.clear();
  accepted_streams_ = 0;
  connections_->Set(0.0);
}

bool EventLoop::Flushed() const {
  for (const auto& [id, stream] : streams_) {
    if (stream.accepted && stream.has_pending_out()) return false;
  }
  return true;
}

void EventLoop::AppendFds(std::vector<int>* fds) const {
  if (listen_fd_ >= 0) fds->push_back(listen_fd_);
  for (const auto& [id, stream] : streams_) fds->push_back(stream.fd);
}

void EventLoop::Run(const Handlers& handlers) {
  handlers_ = &handlers;
  Pass pass;
  std::vector<pollfd> fds;
  std::vector<uint64_t> polled;  // stream id per fds entry; 0 otherwise
  for (;;) {
    pass.stop = false;
    pass.wait_s = kMaxWaitS;
    pass.watch_fds.clear();
    const double now_s = MonotonicSeconds();
    handlers.tick(now_s, &pass);
    const double wait_s = std::min(pass.wait_s, CloseSlowStreams(now_s));
    DeliverCloses();
    if (pass.stop) break;

    fds.clear();
    polled.clear();
    if (listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
      polled.push_back(0);
    }
    for (auto& [id, stream] : streams_) {
      short events = POLLIN;
      if (stream.has_pending_out()) events |= POLLOUT;
      fds.push_back({stream.fd, events, 0});
      polled.push_back(id);
    }
    for (int fd : pass.watch_fds) {
      fds.push_back({fd, POLLIN, 0});
      polled.push_back(0);
    }
    const int timeout_ms = static_cast<int>(
        std::ceil(std::clamp(wait_s, 0.0, kMaxWaitS) * 1000.0));
    // EINTR (a drain or reload signal landing) just starts the next pass,
    // whose tick checks the latches.
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms) <= 0) {
      continue;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (polled[i] == 0) {
        if (fds[i].fd == listen_fd_) Accept();
        continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) Flush(polled[i]);
      if ((fds[i].revents & ~POLLOUT) != 0) Read(polled[i]);
      DeliverCloses();
    }
  }
  handlers_ = nullptr;
}

}  // namespace fairem
