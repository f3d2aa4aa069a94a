#ifndef TIOGA2_RUNTIME_SESSION_SERVER_H_
#define TIOGA2_RUNTIME_SESSION_SERVER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "dataflow/shared_memo_cache.h"
#include "db/catalog.h"
#include "display/displayable.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "ui/session.h"
#include "viewer/viewer.h"

namespace tioga2::runtime {

/// One client's state on the server: a ui::Session (program, engine, canvas
/// registry, undo stack) plus the viewers the client has opened. Requests
/// for one session are serialized by the server (a per-session mutex), so a
/// handler may use the ui::Session and its canvas registry freely; distinct
/// sessions run concurrently.
class Session {
 public:
  Session(std::string id, db::Catalog* catalog)
      : id_(std::move(id)), ui_(catalog) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& id() const { return id_; }
  ui::Session& ui() { return ui_; }

  /// Creates (or returns the existing) viewer onto `canvas_name`, like
  /// Environment::GetViewer but per client.
  Result<viewer::Viewer*> GetViewer(const std::string& canvas_name);

 private:
  friend class SessionServer;

  std::string id_;
  ui::Session ui_;
  std::map<std::string, std::unique_ptr<viewer::Viewer>> viewers_;
  std::mutex mu_;  // serializes this client's requests
};

/// Multiplexes N client sessions over one ThreadPool against one shared
/// catalog — the runtime for the paper's multi-user picture (§7: several
/// viewers, possibly several users, over the same database). Each request
/// runs on one pool worker, and its evaluation runs on that thread.
///
/// Concurrency policy (DESIGN.md §13):
///  - Distinct sessions run concurrently; requests within one session are
///    serialized by the session's mutex (a client is a single logical
///    thread).
///  - Access::kRead handlers take no server lock on the shared catalog: they
///    run inside a db::Catalog::ReadPin, which holds one immutable catalog
///    snapshot for the whole handler, so stamping and table fetches cannot
///    straddle a concurrent writer's publish. Access::kWrite handlers (§8
///    updates via ReplaceTable) take catalog_mu_, which serializes writers
///    against each other, since the catalog's mutators are not internally
///    synchronized.
///  - Admission control is bounded and non-blocking: when `queue_bound`
///    requests are already in flight, Submit immediately resolves the
///    request with Status::Unavailable instead of queueing or blocking
///    (backpressure is the caller's signal to retry later). kBatch-priority
///    requests admit against a lower bound (see Priority), reserving
///    headroom for interactive traffic.
///  - A request carries an optional deadline, checked when a worker dequeues
///    it; an expired request resolves with Status::DeadlineExceeded without
///    running its handler.
class SessionServer {
 public:
  /// Catalog access a handler needs: kRead handlers read one pinned catalog
  /// snapshot, kWrite handlers run one at a time.
  enum class Access { kRead, kWrite };

  /// Scheduling class of a request. kInteractive (the default) may use the
  /// full queue bound; kBatch requests are admitted only while in-flight
  /// load stays below the batch bound (queue_bound minus a reserved
  /// headroom of queue_bound/4), so background traffic can never starve
  /// interactive clients of admission capacity.
  enum class Priority { kInteractive, kBatch };

  struct Options {
    size_t num_threads = 4;
    /// Max requests accepted but not yet finished; beyond it Submit rejects.
    size_t queue_bound = 64;
    /// Applied to requests submitted without a deadline; zero = none.
    std::chrono::milliseconds default_deadline{0};
    /// Capacity (in entries) of the cross-session SharedMemoCache wired into
    /// every session's engine; 0 disables the shared tier, leaving sessions
    /// with only their per-session memoization. See
    /// dataflow/shared_memo_cache.h for the sharing argument.
    size_t shared_cache_entries = 0;
  };

  /// A request body. The Status it returns is delivered through the future.
  using Handler = std::function<Status(Session&)>;

  /// A typed request — the one Submit entry point. Replaces the old
  /// positional (handler, access, deadline) signature, which could not grow
  /// a field without breaking every call site.
  struct Request {
    /// The request body; must be non-null.
    Handler handler;
    /// Catalog access the handler needs (readers pin, writers serialize).
    Access access = Access::kRead;
    /// Deadline measured from Submit; zero = Options::default_deadline.
    std::chrono::milliseconds deadline{0};
    /// Admission class (see Priority).
    Priority priority = Priority::kInteractive;
    /// Optional request-class label ("panzoom", "edit", ...). Nonempty tags
    /// get their own latency histogram under "requests"."classes" in the
    /// metrics JSON.
    std::string tag;
  };

  /// `catalog` must outlive the server.
  explicit SessionServer(db::Catalog* catalog) : SessionServer(catalog, Options{}) {}
  SessionServer(db::Catalog* catalog, Options options);
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Opens a session; generates an id ("s1", "s2", ...) unless one is given.
  /// Returns the id.
  Result<std::string> OpenSession(const std::string& id = "");

  /// Closes a session. Requests already in flight for it finish normally
  /// (they hold a reference); new Submits fail with NotFound.
  Status CloseSession(const std::string& id);

  size_t num_sessions() const;

  /// Enqueues `request` for `session_id`. Returns a future resolving to the
  /// handler's Status — or Unavailable (rejected at the admission bound for
  /// the request's priority), DeadlineExceeded (expired before a worker
  /// picked it up), or NotFound (no such session). Never blocks. Session
  /// existence is checked before the request is charged against the
  /// admission bound, so a burst of submits to unknown or closed sessions
  /// cannot consume queue slots and spuriously reject valid traffic.
  std::future<Status> Submit(const std::string& session_id, Request request);

  /// Blocking convenience: evaluates the displayable on `canvas_name` in
  /// `session_id` through the session's engine.
  Result<display::Displayable> EvaluateCanvas(const std::string& session_id,
                                              const std::string& canvas_name);

  Metrics& metrics() { return metrics_; }
  db::Catalog* catalog() { return catalog_; }
  const Options& options() const { return options_; }

  /// The cross-session shared memo tier, or null when
  /// Options::shared_cache_entries is 0.
  dataflow::SharedMemoCache* shared_cache() { return shared_cache_.get(); }

  /// The in-flight count a kBatch request must stay below to be admitted
  /// (kInteractive admits up to the full queue_bound).
  size_t batch_admission_bound() const {
    return options_.queue_bound - options_.queue_bound / 4;
  }

 private:
  std::shared_ptr<Session> FindSession(const std::string& id) const;

  db::Catalog* catalog_;
  Options options_;
  Metrics metrics_;

  /// Cross-session stamp-keyed memo tier (null when disabled); attached to
  /// every session's engine at OpenSession.
  std::unique_ptr<dataflow::SharedMemoCache> shared_cache_;

  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_ = 1;

  /// Serializes Access::kWrite handlers against each other. kRead handlers
  /// never take it — they read pinned catalog snapshots (see the class
  /// comment).
  std::mutex catalog_mu_;

  /// Requests accepted but not yet finished (admission control).
  std::atomic<size_t> in_flight_{0};

  /// Set by the destructor before pool_ drains: queued requests that have
  /// not started resolve Unavailable("server shutting down") instead of
  /// running their handlers (or, worse, being dropped with a broken
  /// promise). Requests already executing finish normally.
  std::atomic<bool> shutting_down_{false};

  /// Declared last so it is destroyed FIRST: the destructor drains queued
  /// requests and joins the workers while every other member is still alive.
  ThreadPool pool_;
};

}  // namespace tioga2::runtime

#endif  // TIOGA2_RUNTIME_SESSION_SERVER_H_
