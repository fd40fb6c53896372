// Type-erased engine surface for the serving layer (DESIGN.md §14).
//
// Every §13 best-first traversal — DistanceJoin, DistanceSemiJoin,
// IncWithinJoin, IncNearestNeighbor, IncFarthestNeighbor — already exposes
// the same JoinCursor-compatible contract (Next / status / ResumeSuspended /
// SaveState / RestoreState); ErasedEngine lifts exactly that contract behind
// a virtual interface so one SessionManager can hold heterogeneous live
// traversals in one session table. The virtual dispatch sits at Next()
// granularity — once per reported result — so it is invisible next to the
// queue work a result costs.
//
// Result is always JoinResult<Dim>. Single-tree neighbor results are mapped
// into it (id1 = id2 = neighbor id, rect1 = rect2 = neighbor rect, distance
// preserved), so a serving client consumes one record shape.
#ifndef SDJOIN_SERVE_ERASED_ENGINE_H_
#define SDJOIN_SERVE_ERASED_ENGINE_H_

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "core/join_result.h"
#include "core/join_stats.h"
#include "core/snapshot.h"

namespace sdj::serve {

// The uniform engine view the SessionManager multiplexes. Pure interface;
// EngineAdapter below binds a concrete engine behind it.
template <int Dim>
class ErasedEngine {
 public:
  using Result = JoinResult<Dim>;

  virtual ~ErasedEngine() = default;

  virtual bool Next(JoinResult<Dim>* out) = 0;
  virtual JoinStatus status() const = 0;
  virtual void ResumeSuspended() = 0;
  virtual bool SaveState(snapshot::Blob* out) = 0;
  virtual bool RestoreState(snapshot::BlobReader* in) = 0;
  // A copy of the engine's full counter set.
  virtual JoinStats stats() const = 0;
  // Entries currently live in the pair queue — the session's memory-cost
  // proxy for the manager's eviction decisions.
  virtual size_t queue_size() const = 0;
};

// Binds one concrete engine (plus optional per-session context whose
// lifetime must cover the engine's — e.g. privately owned trees) behind the
// erased interface.
template <int Dim, typename Engine>
class EngineAdapter final : public ErasedEngine<Dim> {
 public:
  explicit EngineAdapter(std::unique_ptr<Engine> engine,
                         std::shared_ptr<void> context = nullptr)
      : context_(std::move(context)), engine_(std::move(engine)) {}

  bool Next(JoinResult<Dim>* out) override {
    if constexpr (std::is_same_v<typename Engine::Result, JoinResult<Dim>>) {
      return engine_->Next(out);
    } else {
      // Single-tree neighbor engine: widen the hit into the pair shape.
      typename Engine::Result hit;
      if (!engine_->Next(&hit)) return false;
      out->id1 = hit.id;
      out->id2 = hit.id;
      out->rect1 = hit.rect;
      out->rect2 = hit.rect;
      out->distance = hit.distance;
      return true;
    }
  }
  JoinStatus status() const override { return engine_->status(); }
  void ResumeSuspended() override { engine_->ResumeSuspended(); }
  bool SaveState(snapshot::Blob* out) override {
    return engine_->SaveState(out);
  }
  bool RestoreState(snapshot::BlobReader* in) override {
    return engine_->RestoreState(in);
  }
  JoinStats stats() const override {
    // The NN engines keep their historical stats() shape and expose the
    // core's full counter set as engine_stats(); prefer the full set.
    if constexpr (requires(const Engine& e) { e.engine_stats(); }) {
      return engine_->engine_stats();
    } else {
      return engine_->stats();
    }
  }
  size_t queue_size() const override { return engine_->queue_size(); }

  Engine* engine() const { return engine_.get(); }

 private:
  // Declared before the engine so it is destroyed after it: the engine may
  // reference trees (or other state) owned by the context.
  std::shared_ptr<void> context_;
  std::unique_ptr<Engine> engine_;
};

// Convenience: serve::Erase<2>(std::move(join)) or, with per-session trees,
// serve::Erase<2>(std::move(join), shared_context).
template <int Dim, typename Engine>
std::unique_ptr<ErasedEngine<Dim>> Erase(std::unique_ptr<Engine> engine,
                                         std::shared_ptr<void> context =
                                             nullptr) {
  return std::make_unique<EngineAdapter<Dim, Engine>>(std::move(engine),
                                                      std::move(context));
}

}  // namespace sdj::serve

#endif  // SDJOIN_SERVE_ERASED_ENGINE_H_
