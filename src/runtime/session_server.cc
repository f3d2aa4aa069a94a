#include "runtime/session_server.h"

#include <utility>

namespace tioga2::runtime {

Result<viewer::Viewer*> Session::GetViewer(const std::string& canvas_name) {
  auto it = viewers_.find(canvas_name);
  if (it != viewers_.end()) return it->second.get();
  if (!ui_.registry().Has(canvas_name)) {
    return Status::NotFound("no canvas named '" + canvas_name + "'");
  }
  auto viewer = std::make_unique<viewer::Viewer>("viewer:" + canvas_name,
                                                 canvas_name, &ui_.registry());
  TIOGA2_RETURN_IF_ERROR(viewer->Refresh());
  viewer::Viewer* raw = viewer.get();
  viewers_[canvas_name] = std::move(viewer);
  return raw;
}

SessionServer::SessionServer(db::Catalog* catalog, Options options)
    : catalog_(catalog),
      options_(options),
      pool_(options.num_threads == 0 ? 1 : options.num_threads) {
  if (options_.shared_cache_entries > 0) {
    shared_cache_ = std::make_unique<dataflow::SharedMemoCache>(
        options_.shared_cache_entries);
    metrics_.AttachSharedCache(shared_cache_.get());
  }
}

SessionServer::~SessionServer() {
  // pool_ is declared last, so its destructor — which drains every queued
  // task — runs right after this body. Queued request lambdas observe the
  // flag and resolve Unavailable without touching handlers or metrics state
  // mid-teardown; in-flight handlers (already past the check) finish first
  // because the drain joins the workers.
  shutting_down_.store(true, std::memory_order_release);
}

Result<std::string> SessionServer::OpenSession(const std::string& id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::string session_id = id;
  if (session_id.empty()) {
    session_id = "s" + std::to_string(next_session_++);
  }
  if (sessions_.count(session_id) > 0) {
    return Status::AlreadyExists("session '" + session_id + "' already open");
  }
  auto session = std::make_shared<Session>(session_id, catalog_);
  // Sessions viewing the same canvas share identical box subgraphs; the
  // shared tier lets the second session reuse the first one's evaluations.
  if (shared_cache_ != nullptr) session->ui().set_shared_cache(shared_cache_.get());
  sessions_[session_id] = std::move(session);
  return session_id;
}

Status SessionServer::CloseSession(const std::string& id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (sessions_.erase(id) == 0) {
    return Status::NotFound("no session '" + id + "'");
  }
  return Status::OK();
}

size_t SessionServer::num_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::shared_ptr<Session> SessionServer::FindSession(const std::string& id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::future<Status> SessionServer::Submit(const std::string& session_id,
                                          Request request) {
  auto promise = std::make_shared<std::promise<Status>>();
  std::future<Status> future = promise->get_future();

  if (request.handler == nullptr) {
    promise->set_value(Status::InvalidArgument("request has no handler"));
    return future;
  }

  // Resolve the session BEFORE charging admission: requests for unknown or
  // closed sessions resolve NotFound without ever occupying a queue slot, so
  // a burst of misdirected submits cannot spuriously reject valid traffic
  // (regression: NotFoundBurstDoesNotConsumeAdmission).
  std::shared_ptr<Session> session = FindSession(session_id);
  if (session == nullptr) {
    promise->set_value(Status::NotFound("no session '" + session_id + "'"));
    return future;
  }

  // Admission control: reject immediately at the bound instead of queueing
  // unboundedly or blocking the caller. Batch-priority requests admit
  // against a lower bound, reserving headroom for interactive traffic.
  size_t bound = request.priority == Priority::kBatch ? batch_admission_bound()
                                                      : options_.queue_bound;
  size_t in_flight = in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (in_flight >= bound) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    metrics_.RecordRequestRejected();
    promise->set_value(Status::Unavailable(
        "server at capacity (" + std::to_string(in_flight) + " in flight, " +
        (request.priority == Priority::kBatch ? "batch" : "interactive") +
        " bound " + std::to_string(bound) + "); retry later"));
    return future;
  }
  metrics_.RecordQueueDepth(in_flight + 1);

  std::chrono::milliseconds effective_deadline =
      request.deadline.count() > 0 ? request.deadline
                                   : options_.default_deadline;
  std::chrono::steady_clock::time_point expires_at{};
  bool has_deadline = effective_deadline.count() > 0;
  if (has_deadline) {
    expires_at = std::chrono::steady_clock::now() + effective_deadline;
  }

  pool_.Submit([this, session = std::move(session),
                handler = std::move(request.handler), access = request.access,
                tag = std::move(request.tag), has_deadline, expires_at,
                promise] {
    // A destroyed server drains its queue through here: resolve instead of
    // running the handler against half-torn-down state, and never drop the
    // promise (a broken promise would throw std::future_error at the
    // caller's future.get()).
    if (shutting_down_.load(std::memory_order_acquire)) {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      promise->set_value(Status::Unavailable("server shutting down"));
      return;
    }
    if (has_deadline && std::chrono::steady_clock::now() >= expires_at) {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      metrics_.RecordRequestTimedOut();
      promise->set_value(
          Status::DeadlineExceeded("request expired before a worker ran it"));
      return;
    }
    auto start = std::chrono::steady_clock::now();
    Status status;
    {
      // One client at a time per session. Writers serialize on catalog_mu_;
      // readers hold a ReadPin on one catalog snapshot for the whole
      // handler, so every TableVersion / GetTable pair inside sees the same
      // catalog state even while a writer publishes a new one.
      std::lock_guard<std::mutex> session_lock(session->mu_);
      if (access == Access::kWrite) {
        std::lock_guard<std::mutex> catalog_lock(catalog_mu_);
        status = handler(*session);
      } else {
        db::Catalog::ReadPin pin(*catalog_);
        status = handler(*session);
      }
    }
    double micros = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    metrics_.RecordRequestComplete(micros, tag);
    promise->set_value(std::move(status));
  });
  return future;
}

Result<display::Displayable> SessionServer::EvaluateCanvas(
    const std::string& session_id, const std::string& canvas_name) {
  auto result = std::make_shared<Result<display::Displayable>>(
      Status::Internal("canvas evaluation did not run"));
  Request request;
  request.handler = [canvas_name, result](Session& session) {
    *result = session.ui().EvaluateCanvas(canvas_name);
    return result->status();
  };
  request.tag = "evaluate_canvas";
  std::future<Status> future = Submit(session_id, std::move(request));
  Status status = future.get();
  if (!status.ok()) return status;
  return std::move(*result);
}

}  // namespace tioga2::runtime
