#ifndef FAIREM_SERVE_EVENT_LOOP_H_
#define FAIREM_SERVE_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/serve/protocol.h"
#include "src/util/result.h"

namespace fairem {

// The single-threaded poll() loop that both `fairem serve` and `fairem
// route` run (DESIGN.md §14/§15). It owns every socket of the process: the
// listener, the streams it accepted from clients, and the streams the
// process dialed itself (the router's one stream per backend). One Stream
// type serves both directions: an fd, a FrameDecoder, an out-buffer and a
// last-activity time. Each pass the loop runs the daemon's tick, polls
// (with any extra fds the tick asks for, such as worker pipes), accepts,
// reads and decodes, hands every complete message to the daemon, flushes,
// and closes streams that stalled mid-frame or stopped draining for
// `io_timeout_s`. The daemon supplies only policy: a message handler, a
// close handler and the per-pass tick.
//
// Accepted streams are counted under `<metrics_prefix>.connections_*`,
// `.client_disconnects`, `.slow_client_closes`, `.malformed_frames` and the
// `.connections` gauge; dialed streams are the daemon's to account for.

/// Why a stream ended.
enum class StreamEnd {
  kPeerClosed,  // EOF, or a read/write error such as ECONNRESET or EPIPE
  kMalformed,   // an undecodable frame, or a frame the daemon refused
  kSlow,        // stalled mid-frame or undrained past io_timeout_s
  kLocal,       // closed by the daemon's own policy
};

class EventLoop {
 public:
  /// The longest a pass sleeps in poll() when no timer is due sooner.
  static constexpr double kMaxWaitS = 0.01;
  static constexpr int kListenBacklog = 64;

  /// What the daemon's tick hands back for the coming poll.
  struct Pass {
    /// True once the daemon is done (its drain completed): Run returns.
    bool stop = false;
    /// Seconds until the daemon's next timer; the poll never sleeps
    /// longer than this (nor longer than kMaxWaitS).
    double wait_s = kMaxWaitS;
    /// Extra fds to wake on when readable (worker pipes).
    std::vector<int> watch_fds;
  };

  struct Handlers {
    /// One complete message that arrived on `stream`.
    std::function<void(uint64_t stream, const ServeMessage& message)>
        on_message;
    /// The loop closed `stream` on its own (peer gone, malformed, slow).
    /// Never called for Close(); delivered after the handler that caused
    /// it has returned, so it is safe to send, dial or close from here.
    std::function<void(uint64_t stream, StreamEnd why)> on_close;
    /// Runs once per pass before the poll, with the monotonic time.
    std::function<void(double now_s, Pass* pass)> tick;
  };

  EventLoop(std::string metrics_prefix, double io_timeout_s);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Binds and listens on `socket_path` (a stale file is replaced).
  Status Listen(const std::string& socket_path);
  /// Closes the listener and unlinks its path: new clients get a fast
  /// ECONNREFUSED/ENOENT instead of queueing behind a draining daemon.
  void StopListening();

  /// Connects to `socket_path` and adds the stream; kUnavailable when the
  /// peer is not up.
  Result<uint64_t> Dial(const std::string& socket_path);

  /// Queues one message on `stream` and writes what the socket takes now.
  /// False when the stream is gone (the message has nowhere to go).
  bool Send(uint64_t stream, const std::string& type,
            const std::string& bytes);

  /// Closes `stream` now; on_close is not called.
  void Close(uint64_t stream, StreamEnd why = StreamEnd::kLocal);
  /// Closes every stream uncounted: the last step of a drain.
  void CloseAll();

  bool Has(uint64_t stream) const { return streams_.count(stream) != 0; }
  /// True when every accepted stream has delivered all its output: the
  /// drain-flush check.
  bool Flushed() const;
  /// Appends the listener's and every stream's fd (for a forked worker to
  /// close).
  void AppendFds(std::vector<int>* fds) const;

  /// Runs passes until a tick sets Pass::stop.
  void Run(const Handlers& handlers);

 private:
  struct Stream {
    int fd = -1;
    bool accepted = false;
    FrameDecoder decoder;
    std::string out;
    size_t out_sent = 0;
    double last_activity_s = 0.0;

    bool has_pending_out() const { return out_sent < out.size(); }
  };

  uint64_t Add(int fd, bool accepted);
  void Accept();
  /// Reads what `stream` holds and dispatches each complete message.
  void Read(uint64_t stream);
  void Flush(uint64_t stream);
  /// Closes streams idle mid-frame or undrained past io_timeout_s; returns
  /// the seconds until the next one could be due.
  double CloseSlowStreams(double now_s);
  void End(uint64_t stream, StreamEnd why, bool notify);
  void DeliverCloses();

  const double io_timeout_s_;
  int listen_fd_ = -1;
  std::string listen_path_;
  uint64_t next_id_ = 0;
  std::map<uint64_t, Stream> streams_;
  size_t accepted_streams_ = 0;
  const Handlers* handlers_ = nullptr;  // set while Run executes
  std::vector<std::pair<uint64_t, StreamEnd>> ended_;  // awaiting on_close
  Counter* accepted_;
  Counter* closed_;
  Counter* disconnects_;
  Counter* slow_closes_;
  Counter* malformed_;
  Gauge* connections_;
};

}  // namespace fairem

#endif  // FAIREM_SERVE_EVENT_LOOP_H_
