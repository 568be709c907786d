// Timing decorators for the traced benchmark run.
//
// TimingStore wraps a kv::KVStore and every table it hands out;
// TimingQueuing wraps an mq::Queuing and its queue sets.  Each public call
// into the wrapped layer records one span in a SpanLog and forwards
// untouched, so the library itself stays uninstrumented.  They must be
// transparent: the benchmark's self-test checks that a traced run gives
// the same result digest and exact engine counts as an untraced one.
// Three things make that hold, following fault::FaultyStore:
//  * a store that is also a kv::DurableStore is wrapped by a decorator
//    that is one too (the sync engine finds durability by dynamic_cast
//    and would otherwise stop committing epochs);
//  * placement tables are unwrapped before runInParts / runInPart /
//    postToPart / adoptPartThread / partsOf reach the wrapped store, and
//    lookupTable returns one wrapper per table name, so co-placement and
//    local-op routing are unchanged;
//  * worker contexts forward trySteal / tryReadFrom.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "kvstore/log_store.h"
#include "kvstore/table.h"
#include "mq/queue.h"
#include "spans.h"

namespace perfbench {

/// Span name ids and the counters the decorators keep besides spans.
struct LayerProbe {
  explicit LayerProbe(SpanLog& log);

  SpanLog& log;
  std::uint32_t get, put, putBatch, erase, drainPart, enumerate,
      processParts, runInParts, commit, mqPut, mqRead;

  std::atomic<std::uint64_t> bytesIn{0};   // Key+value bytes written.
  std::atomic<std::uint64_t> bytesOut{0};  // Value bytes returned.
  std::atomic<std::uint64_t> readTimeouts{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> backlogMax{0};
};

class TimingStore : public ripple::kv::KVStore {
 public:
  /// Wrap `inner`; the result is also a kv::DurableStore iff `inner` is.
  [[nodiscard]] static ripple::kv::KVStorePtr wrap(
      ripple::kv::KVStorePtr inner, LayerProbe& probe);

  TimingStore(ripple::kv::KVStorePtr inner, LayerProbe& probe);

  ripple::kv::TablePtr createTable(const std::string& name,
                                   ripple::kv::TableOptions options) override;
  ripple::kv::TablePtr lookupTable(const std::string& name) override;
  void dropTable(const std::string& name) override;
  void runInParts(const ripple::kv::Table& placement,
                  const std::function<void(std::uint32_t)>& fn) override;
  void runInPart(const ripple::kv::Table& placement, std::uint32_t part,
                 const std::function<void()>& fn) override;
  void postToPart(const ripple::kv::Table& placement, std::uint32_t part,
                  std::function<void()> fn) override;
  std::shared_ptr<void> adoptPartThread(const ripple::kv::Table& placement,
                                        std::uint32_t part) override;
  [[nodiscard]] ripple::kv::StoreMetrics& metrics() override {
    return inner_->metrics();
  }
  [[nodiscard]] const char* backendName() const override {
    return inner_->backendName();
  }
  [[nodiscard]] std::uint32_t partsOf(
      const ripple::kv::Table& placement) const override;

 protected:
  ripple::kv::KVStorePtr inner_;
  LayerProbe& probe_;

 private:
  ripple::kv::TablePtr wrapTable(ripple::kv::TablePtr table);
  [[nodiscard]] static const ripple::kv::Table& unwrap(
      const ripple::kv::Table& table);

  std::mutex mu_;
  std::unordered_map<std::string, ripple::kv::TablePtr> wrappers_;
};

/// TimingStore over a durable backend: also times commitEpoch.
class TimingDurableStore : public TimingStore, public ripple::kv::DurableStore {
 public:
  TimingDurableStore(ripple::kv::KVStorePtr inner,
                     ripple::kv::DurableStore& durable, LayerProbe& probe);

  void commitEpoch() override;
  [[nodiscard]] std::uint64_t lastCommittedEpoch() const override {
    return durable_.lastCommittedEpoch();
  }
  [[nodiscard]] const std::string& storePath() const override {
    return durable_.storePath();
  }

 private:
  ripple::kv::DurableStore& durable_;  // Owned by inner_.
};

class TimingQueuing : public ripple::mq::Queuing {
 public:
  TimingQueuing(ripple::mq::QueuingPtr inner, LayerProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  ripple::mq::QueueSetPtr createQueueSet(
      const std::string& name, const ripple::kv::TablePtr& placement) override;
  void deleteQueueSet(const std::string& name) override {
    inner_->deleteQueueSet(name);
  }

 private:
  ripple::mq::QueuingPtr inner_;
  LayerProbe& probe_;
};

}  // namespace perfbench
