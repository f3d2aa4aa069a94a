// Tests for the multi-session server: session lifecycle, concurrent
// sessions over one catalog, bounded admission (reject, never block),
// priority classes, deadlines, read/write catalog exclusion, request-class
// metrics, and the cross-session shared memo tier.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "db/catalog.h"
#include "db/relation.h"
#include "runtime/session_server.h"
#include "testing/fig_programs.h"

namespace tioga2::runtime {
namespace {

using db::Column;
using types::DataType;
using types::Value;

class SessionServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = db::MakeRelation({Column{"v", DataType::kInt}},
                                  {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)},
                                   {Value::Int(4)}})
                     .value();
    ASSERT_TRUE(catalog_.RegisterTable("T", table).ok());
  }

  /// Builds T -> Restrict(v > 1) -> viewer on canvas `canvas` inside `s`.
  static Status BuildProgram(Session& s, const std::string& canvas) {
    ui::Session& ui = s.ui();
    TIOGA2_ASSIGN_OR_RETURN(std::string table, ui.AddTable("T"));
    TIOGA2_ASSIGN_OR_RETURN(std::string restrict,
                            ui.AddBox("Restrict", {{"predicate", "v > 1"}}));
    TIOGA2_RETURN_IF_ERROR(ui.Connect(table, 0, restrict, 0));
    TIOGA2_RETURN_IF_ERROR(ui.AddViewer(restrict, 0, canvas).status());
    return Status::OK();
  }

  db::Catalog catalog_;
};

TEST_F(SessionServerTest, SessionLifecycle) {
  SessionServer server(&catalog_);
  EXPECT_EQ(server.OpenSession().value(), "s1");
  EXPECT_EQ(server.OpenSession().value(), "s2");
  EXPECT_EQ(server.OpenSession("alice").value(), "alice");
  EXPECT_TRUE(server.OpenSession("alice").status().IsAlreadyExists());
  EXPECT_EQ(server.num_sessions(), 3u);
  EXPECT_TRUE(server.CloseSession("s1").ok());
  EXPECT_TRUE(server.CloseSession("s1").IsNotFound());
  EXPECT_EQ(server.num_sessions(), 2u);
  // Submitting to a closed (or unknown) session resolves NotFound.
  auto fut = server.Submit("s1", {.handler = [](Session&) { return Status::OK(); }});
  EXPECT_TRUE(fut.get().IsNotFound());
}

TEST_F(SessionServerTest, NullHandlerIsRejectedUpFront) {
  SessionServer server(&catalog_);
  std::string id = server.OpenSession().value();
  auto fut = server.Submit(id, SessionServer::Request{});
  EXPECT_TRUE(fut.get().IsInvalidArgument());
}

TEST_F(SessionServerTest, EvaluatesCanvasThroughSession) {
  SessionServer server(&catalog_);
  std::string id = server.OpenSession().value();
  auto built = server.Submit(
      id, {.handler = [](Session& s) { return BuildProgram(s, "c"); }});
  ASSERT_TRUE(built.get().ok());
  auto displayable = server.EvaluateCanvas(id, "c");
  ASSERT_TRUE(displayable.ok());
  auto relation = display::AsRelation(displayable.value());
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(relation.value().num_rows(), 3u);
  // The session's viewer surface works too.
  auto viewed = server.Submit(id, {.handler = [](Session& s) {
    TIOGA2_ASSIGN_OR_RETURN(viewer::Viewer * v, s.GetViewer("c"));
    return v != nullptr ? Status::OK() : Status::Internal("null viewer");
  }});
  EXPECT_TRUE(viewed.get().ok());
  EXPECT_GE(server.metrics().snapshot().requests_completed, 3u);
}

TEST_F(SessionServerTest, SessionsAreIsolated) {
  SessionServer server(&catalog_);
  std::string a = server.OpenSession().value();
  std::string b = server.OpenSession().value();
  ASSERT_TRUE(
      server.Submit(a, {.handler = [](Session& s) { return BuildProgram(s, "c"); }})
          .get()
          .ok());
  // Session b never built a program: its canvas registry is empty.
  EXPECT_TRUE(server.EvaluateCanvas(b, "c").status().IsNotFound());
  EXPECT_TRUE(server.EvaluateCanvas(a, "c").ok());
}

TEST_F(SessionServerTest, SustainsEightConcurrentSessions) {
  SessionServer::Options options;
  options.num_threads = 4;
  SessionServer server(&catalog_, options);
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(server.OpenSession().value());
  std::vector<std::future<Status>> futures;
  for (const std::string& id : ids) {
    futures.push_back(server.Submit(
        id, {.handler = [](Session& s) { return BuildProgram(s, "c"); }}));
    // Several evaluation requests per session, interleaved across sessions.
    for (int r = 0; r < 3; ++r) {
      futures.push_back(server.Submit(id, {.handler = [](Session& s) {
        return s.ui().EvaluateCanvas("c").status();
      }}));
    }
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.requests_completed, futures.size());
  EXPECT_EQ(snap.requests_rejected, 0u);
}

TEST_F(SessionServerTest, RejectsBeyondQueueBoundWithoutBlocking) {
  SessionServer::Options options;
  options.num_threads = 2;
  options.queue_bound = 2;
  SessionServer server(&catalog_, options);
  std::string id = server.OpenSession().value();
  // Two handlers park on a latch, filling the bound.
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  auto first = server.Submit(id, {.handler = [latch](Session&) {
    latch.wait();
    return Status::OK();
  }});
  auto second = server.Submit(id, {.handler = [latch](Session&) {
    latch.wait();
    return Status::OK();
  }});
  // The third is rejected immediately — Submit resolves without blocking.
  auto start = std::chrono::steady_clock::now();
  auto third =
      server.Submit(id, {.handler = [](Session&) { return Status::OK(); }});
  Status rejected = third.get();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(rejected.IsUnavailable()) << rejected.message();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  release.set_value();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
  MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.requests_rejected, 1u);
  EXPECT_EQ(snap.requests_completed, 2u);
  // Capacity freed: new requests are admitted again.
  EXPECT_TRUE(
      server.Submit(id, {.handler = [](Session&) { return Status::OK(); }})
          .get()
          .ok());
}

TEST_F(SessionServerTest, SaturationCountsMatchMetricsJson) {
  SessionServer::Options options;
  options.num_threads = 2;
  options.queue_bound = 2;
  SessionServer server(&catalog_, options);
  std::string id = server.OpenSession().value();
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  std::vector<std::future<Status>> parked;
  for (int i = 0; i < 2; ++i) {
    parked.push_back(server.Submit(id, {.handler = [latch](Session&) {
      latch.wait();
      return Status::OK();
    }}));
  }
  // Saturated: every further submit resolves Unavailable immediately.
  size_t unavailable = 0;
  for (int i = 0; i < 5; ++i) {
    Status status =
        server.Submit(id, {.handler = [](Session&) { return Status::OK(); }})
            .get();
    if (status.IsUnavailable()) ++unavailable;
  }
  EXPECT_EQ(unavailable, 5u);
  release.set_value();
  for (auto& f : parked) EXPECT_TRUE(f.get().ok());

  // A queued-but-expired request resolves DeadlineExceeded (not Unavailable):
  // it was admitted, then aged out before a worker dequeued it. Needs
  // queue_bound > num_threads so the request queues instead of rejecting.
  SessionServer::Options wide;
  wide.num_threads = 1;
  wide.queue_bound = 8;
  SessionServer narrow(&catalog_, wide);
  std::string nid = narrow.OpenSession().value();
  std::promise<void> nrelease;
  std::shared_future<void> nlatch = nrelease.get_future().share();
  auto busy = narrow.Submit(nid, {.handler = [nlatch](Session&) {
    nlatch.wait();
    return Status::OK();
  }});
  auto expired = narrow.Submit(
      nid, {.handler = [](Session&) { return Status::OK(); },
            .deadline = std::chrono::milliseconds(1)});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  nrelease.set_value();
  EXPECT_TRUE(busy.get().ok());
  EXPECT_TRUE(expired.get().IsDeadlineExceeded());

  // The rejection counter in the JSON export matches what callers observed.
  MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.requests_rejected, unavailable);
  std::string json = server.metrics().ToJson();
  EXPECT_NE(json.find("\"rejected\":" + std::to_string(unavailable)),
            std::string::npos)
      << json;
  MetricsSnapshot nsnap = narrow.metrics().snapshot();
  EXPECT_EQ(nsnap.requests_timed_out, 1u);
  EXPECT_NE(narrow.metrics().ToJson().find("\"timed_out\":1"), std::string::npos);
}

TEST_F(SessionServerTest, BatchPriorityAdmitsAgainstLowerBound) {
  SessionServer::Options options;
  options.num_threads = 3;
  options.queue_bound = 4;  // batch bound = 4 - 4/4 = 3
  SessionServer server(&catalog_, options);
  ASSERT_EQ(server.batch_admission_bound(), 3u);
  std::string id = server.OpenSession().value();
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  std::vector<std::future<Status>> parked;
  for (int i = 0; i < 3; ++i) {
    parked.push_back(server.Submit(id, {.handler = [latch](Session&) {
      latch.wait();
      return Status::OK();
    }}));
  }
  // In-flight is at the batch bound: batch traffic is turned away while the
  // reserved headroom still admits interactive traffic.
  auto batch = server.Submit(
      id, {.handler = [](Session&) { return Status::OK(); },
           .priority = SessionServer::Priority::kBatch});
  Status batch_status = batch.get();
  EXPECT_TRUE(batch_status.IsUnavailable()) << batch_status.message();
  auto interactive =
      server.Submit(id, {.handler = [](Session&) { return Status::OK(); }});
  release.set_value();
  EXPECT_TRUE(interactive.get().ok());
  for (auto& f : parked) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(server.metrics().snapshot().requests_rejected, 1u);
}

TEST_F(SessionServerTest, NotFoundBurstDoesNotConsumeAdmission) {
  // Regression: Submit resolves the session BEFORE charging admission, so a
  // burst of submits to unknown/closed sessions cannot eat queue slots and
  // spuriously reject valid traffic.
  SessionServer::Options options;
  options.num_threads = 1;
  options.queue_bound = 2;
  SessionServer server(&catalog_, options);
  std::string id = server.OpenSession().value();
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  auto busy = server.Submit(id, {.handler = [latch](Session&) {
    latch.wait();
    return Status::OK();
  }});
  // One admission slot remains. Hammer a nonexistent session...
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        server.Submit("ghost", {.handler = [](Session&) { return Status::OK(); }})
            .get()
            .IsNotFound());
  }
  // ...and the surviving slot still admits a real request.
  auto admitted =
      server.Submit(id, {.handler = [](Session&) { return Status::OK(); }});
  release.set_value();
  EXPECT_TRUE(busy.get().ok());
  EXPECT_TRUE(admitted.get().ok());
  EXPECT_EQ(server.metrics().snapshot().requests_rejected, 0u);
}

TEST_F(SessionServerTest, ExpiredRequestResolvesDeadlineExceeded) {
  SessionServer::Options options;
  options.num_threads = 1;
  SessionServer server(&catalog_, options);
  std::string id = server.OpenSession().value();
  // Occupy the only worker long enough for the deadline to pass.
  auto slow = server.Submit(id, {.handler = [](Session&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return Status::OK();
  }});
  auto expired = server.Submit(
      id, {.handler = [](Session&) { return Status::OK(); },
           .deadline = std::chrono::milliseconds(1)});
  EXPECT_TRUE(slow.get().ok());
  EXPECT_TRUE(expired.get().IsDeadlineExceeded());
  EXPECT_GE(server.metrics().snapshot().requests_timed_out, 1u);
}

TEST_F(SessionServerTest, TaggedRequestsGetPerClassHistograms) {
  SessionServer server(&catalog_);
  std::string id = server.OpenSession().value();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(server.Submit(
                          id, {.handler = [](Session&) { return Status::OK(); },
                               .tag = "panzoom"})
                    .get()
                    .ok());
  }
  ASSERT_TRUE(server.Submit(id, {.handler = [](Session&) { return Status::OK(); },
                                 .access = SessionServer::Access::kWrite,
                                 .tag = "edit"})
                  .get()
                  .ok());
  // Untagged traffic lands only in the aggregate histogram.
  ASSERT_TRUE(
      server.Submit(id, {.handler = [](Session&) { return Status::OK(); }})
          .get()
          .ok());
  std::string json = server.metrics().ToJson();
  EXPECT_NE(json.find("\"classes\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"panzoom\":{\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"edit\":{\"count\":1"), std::string::npos) << json;
  EXPECT_EQ(server.metrics().snapshot().requests_completed, 4u);
}

TEST_F(SessionServerTest, WriteHandlersUpdateSharedCatalog) {
  SessionServer server(&catalog_);
  std::string writer = server.OpenSession().value();
  std::string reader = server.OpenSession().value();
  ASSERT_TRUE(server.Submit(reader, {.handler = [](Session& s) {
                      return BuildProgram(s, "c");
                    }})
                  .get()
                  .ok());
  ASSERT_EQ(display::AsRelation(server.EvaluateCanvas(reader, "c").value())
                .value()
                .num_rows(),
            3u);
  // A kWrite handler replaces T exclusively; readers then see the new rows
  // (the table-version stamp invalidates the memoized chain).
  auto wrote = server.Submit(
      writer,
      {.handler =
           [](Session& s) {
             auto updated = db::MakeRelation({Column{"v", DataType::kInt}},
                                             {{Value::Int(7)}, {Value::Int(8)}});
             TIOGA2_RETURN_IF_ERROR(updated.status());
             return s.ui().catalog()->ReplaceTable("T", updated.value());
           },
       .access = SessionServer::Access::kWrite});
  ASSERT_TRUE(wrote.get().ok());
  EXPECT_EQ(display::AsRelation(server.EvaluateCanvas(reader, "c").value())
                .value()
                .num_rows(),
            2u);
}

TEST_F(SessionServerTest, ConcurrentReadersAndWritersStayConsistent) {
  SessionServer::Options options;
  options.num_threads = 4;
  options.queue_bound = 256;
  SessionServer server(&catalog_, options);
  std::vector<std::string> readers;
  for (int i = 0; i < 4; ++i) {
    std::string id = server.OpenSession().value();
    ASSERT_TRUE(server.Submit(id, {.handler = [](Session& s) {
                        return BuildProgram(s, "c");
                      }})
                    .get()
                    .ok());
    readers.push_back(id);
  }
  std::string writer = server.OpenSession().value();
  std::vector<std::future<Status>> futures;
  for (int round = 0; round < 5; ++round) {
    futures.push_back(server.Submit(
        writer,
        {.handler =
             [round](Session& s) {
               std::vector<std::vector<Value>> rows;
               for (int v = 0; v <= round; ++v) rows.push_back({Value::Int(v + 2)});
               auto updated =
                   db::MakeRelation({Column{"v", DataType::kInt}}, std::move(rows));
               TIOGA2_RETURN_IF_ERROR(updated.status());
               return s.ui().catalog()->ReplaceTable("T", updated.value());
             },
         .access = SessionServer::Access::kWrite,
         .tag = "edit"}));
    for (const std::string& id : readers) {
      futures.push_back(server.Submit(id, {.handler = [](Session& s) {
        // Readers overlap with writers; the rwlock keeps each evaluation
        // against one consistent table version.
        return s.ui().EvaluateCanvas("c").status();
      }, .tag = "panzoom"}));
    }
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(server.metrics().snapshot().requests_rejected, 0u);
}

TEST_F(SessionServerTest, SharedCacheConvergesAcrossSameCanvasSessions) {
  // §7 multi-user claim: M sessions viewing the same canvas over one catalog
  // converge to ~1x evaluation work through the stamp-keyed shared tier,
  // and every session sees byte-identical output.
  constexpr int kSessions = 8;
  SessionServer::Options options;
  options.num_threads = 1;  // serial: makes the fire counts exact
  options.shared_cache_entries = 1024;
  SessionServer server(&catalog_, options);
  ASSERT_NE(server.shared_cache(), nullptr);
  std::vector<std::string> ids;
  for (int i = 0; i < kSessions; ++i) {
    std::string id = server.OpenSession().value();
    ASSERT_TRUE(server.Submit(id, {.handler = [](Session& s) {
                        return BuildProgram(s, "c");
                      }})
                    .get()
                    .ok());
    ids.push_back(id);
  }
  std::set<std::string> fingerprints;
  for (const std::string& id : ids) {
    auto displayable = server.EvaluateCanvas(id, "c");
    ASSERT_TRUE(displayable.ok()) << displayable.status().message();
    fingerprints.insert(testing::FingerprintDisplayable(displayable.value()));
  }
  // Byte-identical across sessions: one distinct fingerprint.
  EXPECT_EQ(fingerprints.size(), 1u);

  // Total work: session 1 fires the program's boxes; sessions 2..M adopt the
  // shared entries instead of re-firing. The bound is 2x one session's fires
  // (the issue's convergence criterion), and the shared tier must have
  // served most sessions.
  uint64_t total_fired = 0;
  uint64_t first_fired = 0;
  uint64_t total_shared_hits = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    uint64_t fired = 0;
    uint64_t shared = 0;
    ASSERT_TRUE(server.Submit(ids[i], {.handler = [&fired, &shared](Session& s) {
                        fired = s.ui().engine().stats().boxes_fired;
                        shared = s.ui().engine().stats().shared_hits;
                        return Status::OK();
                      }})
                    .get()
                    .ok());
    if (i == 0) first_fired = fired;
    total_fired += fired;
    total_shared_hits += shared;
  }
  ASSERT_GT(first_fired, 0u);
  EXPECT_LE(total_fired, 2 * first_fired)
      << "shared tier failed to deduplicate evaluation work";
  EXPECT_GT(total_shared_hits, 0u);
  dataflow::SharedMemoCache::Stats stats = server.shared_cache()->stats();
  EXPECT_GE(stats.hits, static_cast<uint64_t>(kSessions - 1));
  EXPECT_EQ(stats.hits, total_shared_hits);
  // The metrics JSON surfaces the shared tier.
  std::string json = server.metrics().ToJson();
  EXPECT_NE(json.find("\"shared_cache\":{\"hits\":"), std::string::npos) << json;
  MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.shared_cache_hits, stats.hits);
  EXPECT_EQ(snap.shared_cache_inserts, stats.inserts);
}

TEST_F(SessionServerTest, SharedCacheIsSafeUnderConcurrentSessions) {
  // The TSan target for the shared tier: many sessions race evaluation of
  // the same canvas over one SharedMemoCache on a real pool. No exact fire
  // counts here (concurrent misses may double-fire before the first insert
  // lands) — the assertions are safety ones: every request succeeds and
  // every session sees byte-identical output.
  SessionServer::Options options;
  options.num_threads = 4;
  options.queue_bound = 256;
  options.shared_cache_entries = 1024;
  SessionServer server(&catalog_, options);
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    std::string id = server.OpenSession().value();
    ASSERT_TRUE(server.Submit(id, {.handler = [](Session& s) {
                        return BuildProgram(s, "c");
                      }})
                    .get()
                    .ok());
    ids.push_back(id);
  }
  std::vector<std::future<Status>> futures;
  for (int round = 0; round < 5; ++round) {
    for (const std::string& id : ids) {
      futures.push_back(server.Submit(id, {.handler = [](Session& s) {
        return s.ui().EvaluateCanvas("c").status();
      }, .tag = "panzoom"}));
    }
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  std::set<std::string> fingerprints;
  for (const std::string& id : ids) {
    auto displayable = server.EvaluateCanvas(id, "c");
    ASSERT_TRUE(displayable.ok());
    fingerprints.insert(testing::FingerprintDisplayable(displayable.value()));
  }
  EXPECT_EQ(fingerprints.size(), 1u);
  EXPECT_GT(server.shared_cache()->stats().hits, 0u);
}

TEST_F(SessionServerTest, SharedCacheEntriesStayValidAfterTableUpdate) {
  // Stale entries are never served: a catalog write bumps the table version,
  // which changes every downstream stamp, so post-update evaluations miss
  // the shared tier and recompute. The old entries age out via LRU.
  SessionServer::Options options;
  options.num_threads = 1;
  options.shared_cache_entries = 1024;
  SessionServer server(&catalog_, options);
  std::string a = server.OpenSession().value();
  std::string b = server.OpenSession().value();
  for (const std::string& id : {a, b}) {
    ASSERT_TRUE(server.Submit(id, {.handler = [](Session& s) {
                        return BuildProgram(s, "c");
                      }})
                    .get()
                    .ok());
    ASSERT_TRUE(server.EvaluateCanvas(id, "c").ok());
  }
  ASSERT_TRUE(server
                  .Submit(a,
                          {.handler =
                               [](Session& s) {
                                 auto updated = db::MakeRelation(
                                     {Column{"v", DataType::kInt}},
                                     {{Value::Int(7)}, {Value::Int(8)}});
                                 TIOGA2_RETURN_IF_ERROR(updated.status());
                                 return s.ui().catalog()->ReplaceTable(
                                     "T", updated.value());
                               },
                           .access = SessionServer::Access::kWrite})
                  .get()
                  .ok());
  // Both sessions see the new table, not a stale shared entry.
  for (const std::string& id : {a, b}) {
    auto displayable = server.EvaluateCanvas(id, "c");
    ASSERT_TRUE(displayable.ok());
    EXPECT_EQ(display::AsRelation(displayable.value()).value().num_rows(), 2u);
  }
}

// Regression: destroying a server with requests still queued behind a busy
// worker must resolve them — Unavailable("server shutting down") — rather
// than drop their promises (a dropped promise makes future.get() throw
// std::future_error/broken_promise) or run handlers against a server mid-
// teardown.
TEST_F(SessionServerTest, DestroyingServerResolvesQueuedRequestsUnavailable) {
  SessionServer::Options options;
  options.num_threads = 1;  // one worker: everything queues behind it
  options.queue_bound = 8;
  auto server = std::make_unique<SessionServer>(&catalog_, options);
  std::string id = server->OpenSession().value();

  std::promise<void> started_promise;
  std::future<void> started = started_promise.get_future();
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  // Occupy the only worker...
  std::future<Status> running =
      server->Submit(id, {.handler = [&started_promise, latch](Session&) {
        started_promise.set_value();
        latch.wait();
        return Status::OK();
      }});
  started.wait();
  // ...and saturate the queue behind it.
  std::vector<std::future<Status>> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(server->Submit(
        id, {.handler = [](Session&) { return Status::OK(); }}));
  }

  // Destroy from another thread: the destructor publishes the shutdown flag
  // immediately, then blocks draining the pool until the latch releases the
  // running handler. The sleep lets that first store land before the worker
  // is freed to drain the queue.
  std::thread destroyer([&server] { server.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.set_value();
  destroyer.join();

  // The in-flight request finished normally; every queued one resolved
  // (no future_error) with the documented shutdown status.
  EXPECT_TRUE(running.get().ok());
  for (auto& future : queued) {
    Status status = future.get();
    EXPECT_TRUE(status.IsUnavailable()) << status.message();
    EXPECT_NE(status.message().find("shutting down"), std::string::npos)
        << status.message();
  }
}

// The torture case of DESIGN.md §13, run under the TSan pass in
// scripts/check.sh: concurrent kRead handlers evaluate through pinned
// catalog snapshots and the mutex-guarded shared memo tier while kWrite
// handlers churn table versions (replacing snapshots) and a deliberately
// tiny shared cache evicts on nearly every insert. Every read must render
// byte-identically to one of the two catalog states — a torn read (stamp
// from one version, rows from another) would produce a third fingerprint.
TEST_F(SessionServerTest, TortureCatalogChurnWithSharedCacheEvictions) {
  SessionServer::Options options;
  options.num_threads = 3;
  options.queue_bound = 64;
  options.shared_cache_entries = 2;  // force evictions on nearly every insert
  SessionServer server(&catalog_, options);
  std::string a = server.OpenSession().value();
  std::string b = server.OpenSession().value();
  for (const std::string& id : {a, b}) {
    ASSERT_TRUE(server
                    .Submit(id, {.handler = [](Session& s) {
                      return BuildProgram(s, "c");
                    }})
                    .get()
                    .ok());
  }

  auto content_a = db::MakeRelation({Column{"v", DataType::kInt}},
                                    {{Value::Int(1)}, {Value::Int(2)},
                                     {Value::Int(3)}, {Value::Int(4)}})
                       .value();
  auto content_b = db::MakeRelation({Column{"v", DataType::kInt}},
                                    {{Value::Int(7)}, {Value::Int(8)},
                                     {Value::Int(9)}})
                       .value();
  // The two byte-exact renderings a read is allowed to observe.
  ASSERT_TRUE(catalog_.ReplaceTable("T", content_a).ok());
  std::string fp_a =
      testing::FingerprintDisplayable(server.EvaluateCanvas(a, "c").value());
  ASSERT_TRUE(catalog_.ReplaceTable("T", content_b).ok());
  std::string fp_b =
      testing::FingerprintDisplayable(server.EvaluateCanvas(a, "c").value());
  ASSERT_NE(fp_a, fp_b);

  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> renders{0};
  std::vector<std::future<Status>> futures;
  constexpr int kRounds = 30;
  for (int round = 0; round < kRounds; ++round) {
    const auto& content = (round % 2 == 0) ? content_a : content_b;
    futures.push_back(server.Submit(
        a, {.handler =
                [content](Session& s) {
                  return s.ui().catalog()->ReplaceTable("T", content);
                },
            .access = SessionServer::Access::kWrite}));
    for (const std::string& id : {a, b}) {
      futures.push_back(server.Submit(id, {.handler = [&, fp_a,
                                                       fp_b](Session& s) {
        auto displayable = s.ui().EvaluateCanvas("c");
        TIOGA2_RETURN_IF_ERROR(displayable.status());
        std::string fp = testing::FingerprintDisplayable(displayable.value());
        if (fp != fp_a && fp != fp_b) torn.fetch_add(1);
        renders.fetch_add(1);
        return Status::OK();
      }}));
    }
    // Drain periodically so admission control never rejects the torture
    // traffic (rejections would silently shrink coverage).
    if (futures.size() >= 48) {
      for (auto& f : futures) EXPECT_TRUE(f.get().ok());
      futures.clear();
    }
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(renders.load(), 0u);
  EXPECT_GT(server.shared_cache()->stats().evictions, 0u);
}

}  // namespace
}  // namespace tioga2::runtime
