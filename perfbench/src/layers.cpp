#include "layers.h"

#include <utility>

namespace perfbench {

namespace kv = ripple::kv;
namespace mq = ripple::mq;
using ripple::Bytes;

LayerProbe::LayerProbe(SpanLog& spanLog)
    : log(spanLog),
      get(log.intern("kvstore.get")),
      put(log.intern("kvstore.put")),
      putBatch(log.intern("kvstore.put_batch")),
      erase(log.intern("kvstore.erase")),
      drainPart(log.intern("kvstore.drain_part")),
      enumerate(log.intern("kvstore.enumerate")),
      processParts(log.intern("kvstore.process_parts")),
      runInParts(log.intern("kvstore.run_in_parts")),
      commit(log.intern("kvstore.log.commit")),
      mqPut(log.intern("mq.put")),
      mqRead(log.intern("mq.read")) {}

namespace {

void addBytes(std::atomic<std::uint64_t>& counter, std::uint64_t n) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

/// Counts the bytes an enumeration hands to the caller's consumer.
class CountingConsumer : public kv::PairConsumer {
 public:
  CountingConsumer(kv::PairConsumer& user, LayerProbe& probe)
      : user_(user), probe_(probe) {}
  void setupPart(std::uint32_t part) override { user_.setupPart(part); }
  bool consume(std::uint32_t part, kv::KeyView k, kv::ValueView v) override {
    addBytes(probe_.bytesOut, k.size() + v.size());
    return user_.consume(part, k, v);
  }
  Bytes finalizePart(std::uint32_t part) override {
    return user_.finalizePart(part);
  }
  Bytes combine(Bytes a, Bytes b) override {
    return user_.combine(std::move(a), std::move(b));
  }

 private:
  kv::PairConsumer& user_;
  LayerProbe& probe_;
};

class TimingTable : public kv::Table {
 public:
  TimingTable(kv::TablePtr inner, LayerProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] const kv::TableOptions& options() const override {
    return inner_->options();
  }
  [[nodiscard]] std::uint32_t numParts() const override {
    return inner_->numParts();
  }
  [[nodiscard]] std::uint32_t partOf(kv::KeyView key) const override {
    return inner_->partOf(key);
  }
  void setReadOnly(bool readOnly) override { inner_->setReadOnly(readOnly); }
  [[nodiscard]] bool readOnly() const override { return inner_->readOnly(); }

  std::optional<kv::Value> get(kv::KeyView key) override {
    SpanLog::Scope span(&probe_.log, probe_.get);
    std::optional<kv::Value> v = inner_->get(key);
    if (v) {
      addBytes(probe_.bytesOut, v->size());
    }
    return v;
  }

  void put(kv::KeyView key, kv::ValueView value) override {
    SpanLog::Scope span(&probe_.log, probe_.put);
    addBytes(probe_.bytesIn, key.size() + value.size());
    inner_->put(key, value);
  }

  bool erase(kv::KeyView key) override {
    SpanLog::Scope span(&probe_.log, probe_.erase);
    return inner_->erase(key);
  }

  void putBatch(const std::vector<std::pair<kv::Key, kv::Value>>& entries)
      override {
    SpanLog::Scope span(&probe_.log, probe_.putBatch);
    std::uint64_t bytes = 0;
    for (const auto& [k, v] : entries) {
      bytes += k.size() + v.size();
    }
    addBytes(probe_.bytesIn, bytes);
    inner_->putBatch(entries);
  }

  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  [[nodiscard]] std::uint64_t partSize(std::uint32_t part) const override {
    return inner_->partSize(part);
  }

  Bytes enumerate(kv::PairConsumer& consumer) override {
    SpanLog::Scope span(&probe_.log, probe_.enumerate);
    CountingConsumer counting(consumer, probe_);
    return inner_->enumerate(counting);
  }

  Bytes enumeratePart(std::uint32_t part, kv::PairConsumer& consumer) override {
    SpanLog::Scope span(&probe_.log, probe_.enumerate);
    CountingConsumer counting(consumer, probe_);
    return inner_->enumeratePart(part, counting);
  }

  Bytes processParts(kv::PartConsumer& consumer) override {
    // Mobile code gets the wrapper, so its table calls are timed too.
    class Shim : public kv::PartConsumer {
     public:
      Shim(TimingTable& table, kv::PartConsumer& user)
          : table_(table), user_(user) {}
      Bytes processPart(std::uint32_t part, kv::Table&) override {
        return user_.processPart(part, table_);
      }
      Bytes combine(Bytes a, Bytes b) override {
        return user_.combine(std::move(a), std::move(b));
      }

     private:
      TimingTable& table_;
      kv::PartConsumer& user_;
    };
    SpanLog::Scope span(&probe_.log, probe_.processParts);
    Shim shim(*this, consumer);
    return inner_->processParts(shim);
  }

  // clearPart and drainPart are both whole-part removals; one op class.
  std::uint64_t clearPart(std::uint32_t part) override {
    SpanLog::Scope span(&probe_.log, probe_.drainPart);
    return inner_->clearPart(part);
  }

  std::vector<std::pair<kv::Key, kv::Value>> drainPart(
      std::uint32_t part) override {
    SpanLog::Scope span(&probe_.log, probe_.drainPart);
    auto pairs = inner_->drainPart(part);
    std::uint64_t bytes = 0;
    for (const auto& [k, v] : pairs) {
      bytes += k.size() + v.size();
    }
    addBytes(probe_.bytesOut, bytes);
    return pairs;
  }

  [[nodiscard]] const kv::TablePtr& inner() const { return inner_; }

 private:
  kv::TablePtr inner_;
  LayerProbe& probe_;
};

class TimingQueueSet : public mq::QueueSet {
 public:
  TimingQueueSet(mq::QueueSetPtr inner, LayerProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::uint32_t numQueues() const override {
    return inner_->numQueues();
  }

  bool put(std::uint32_t queue, Bytes message) override {
    bool ok = false;
    {
      SpanLog::Scope span(&probe_.log, probe_.mqPut);
      ok = inner_->put(queue, std::move(message));
    }
    // Sampled after each put, outside the span: the queue depth a
    // reader would find.
    const std::uint64_t depth = inner_->backlog();
    std::uint64_t seen = probe_.backlogMax.load(std::memory_order_relaxed);
    while (depth > seen && !probe_.backlogMax.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
    return ok;
  }

  void runWorkers(const std::function<void(mq::WorkerContext&)>& body)
      override {
    inner_->runWorkers([this, &body](mq::WorkerContext& inner) {
      Context ctx(probe_, inner);
      body(ctx);
    });
  }

  void runWorkers(const std::function<void(mq::WorkerContext&)>& body,
                  std::uint32_t threads) override {
    inner_->runWorkers(
        [this, &body](mq::WorkerContext& inner) {
          Context ctx(probe_, inner);
          body(ctx);
        },
        threads);
  }

  void close() override { inner_->close(); }

  [[nodiscard]] std::uint64_t backlog() const override {
    return inner_->backlog();
  }

 private:
  class Context : public mq::WorkerContext {
   public:
    Context(LayerProbe& probe, mq::WorkerContext& inner)
        : probe_(probe), inner_(inner) {}

    [[nodiscard]] std::uint32_t queueIndex() const override {
      return inner_.queueIndex();
    }

    std::optional<Bytes> read(std::chrono::milliseconds timeout) override {
      SpanLog::Scope span(&probe_.log, probe_.mqRead);
      std::optional<Bytes> msg = inner_.read(timeout);
      if (!msg) {
        probe_.readTimeouts.fetch_add(1, std::memory_order_relaxed);
      }
      return msg;
    }

    std::optional<Bytes> tryRead() override {
      SpanLog::Scope span(&probe_.log, probe_.mqRead);
      return inner_.tryRead();
    }

    std::optional<Bytes> trySteal(std::uint32_t fromQueue) override {
      std::optional<Bytes> msg = inner_.trySteal(fromQueue);
      if (msg) {
        probe_.steals.fetch_add(1, std::memory_order_relaxed);
      }
      return msg;
    }

    std::optional<Bytes> tryReadFrom(std::uint32_t fromQueue) override {
      return inner_.tryReadFrom(fromQueue);
    }

   private:
    LayerProbe& probe_;
    mq::WorkerContext& inner_;
  };

  mq::QueueSetPtr inner_;
  LayerProbe& probe_;
};

}  // namespace

kv::KVStorePtr TimingStore::wrap(kv::KVStorePtr inner, LayerProbe& probe) {
  if (auto* durable = dynamic_cast<kv::DurableStore*>(inner.get())) {
    return std::make_shared<TimingDurableStore>(std::move(inner), *durable,
                                                probe);
  }
  return std::make_shared<TimingStore>(std::move(inner), probe);
}

TimingStore::TimingStore(kv::KVStorePtr inner, LayerProbe& probe)
    : inner_(std::move(inner)), probe_(probe) {}

kv::TablePtr TimingStore::wrapTable(kv::TablePtr table) {
  if (!table) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = wrappers_.find(table->name());
  if (it != wrappers_.end()) {
    return it->second;
  }
  auto wrapper = std::make_shared<TimingTable>(std::move(table), probe_);
  wrappers_.emplace(wrapper->name(), wrapper);
  return wrapper;
}

const kv::Table& TimingStore::unwrap(const kv::Table& table) {
  if (const auto* wrapper = dynamic_cast<const TimingTable*>(&table)) {
    return *wrapper->inner();
  }
  return table;
}

kv::TablePtr TimingStore::createTable(const std::string& name,
                                      kv::TableOptions options) {
  return wrapTable(inner_->createTable(name, std::move(options)));
}

kv::TablePtr TimingStore::lookupTable(const std::string& name) {
  return wrapTable(inner_->lookupTable(name));
}

void TimingStore::dropTable(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    wrappers_.erase(name);
  }
  inner_->dropTable(name);
}

// runInPart is the one-part form of runInParts; one op class.
void TimingStore::runInParts(const kv::Table& placement,
                             const std::function<void(std::uint32_t)>& fn) {
  SpanLog::Scope span(&probe_.log, probe_.runInParts);
  inner_->runInParts(unwrap(placement), fn);
}

void TimingStore::runInPart(const kv::Table& placement, std::uint32_t part,
                            const std::function<void()>& fn) {
  SpanLog::Scope span(&probe_.log, probe_.runInParts);
  inner_->runInPart(unwrap(placement), part, fn);
}

void TimingStore::postToPart(const kv::Table& placement, std::uint32_t part,
                             std::function<void()> fn) {
  inner_->postToPart(unwrap(placement), part, std::move(fn));
}

std::shared_ptr<void> TimingStore::adoptPartThread(const kv::Table& placement,
                                                   std::uint32_t part) {
  return inner_->adoptPartThread(unwrap(placement), part);
}

std::uint32_t TimingStore::partsOf(const kv::Table& placement) const {
  return inner_->partsOf(unwrap(placement));
}

TimingDurableStore::TimingDurableStore(kv::KVStorePtr inner,
                                       kv::DurableStore& durable,
                                       LayerProbe& probe)
    : TimingStore(std::move(inner), probe), durable_(durable) {}

void TimingDurableStore::commitEpoch() {
  SpanLog::Scope span(&probe_.log, probe_.commit);
  durable_.commitEpoch();
}

mq::QueueSetPtr TimingQueuing::createQueueSet(const std::string& name,
                                              const kv::TablePtr& placement) {
  return std::make_shared<TimingQueueSet>(
      inner_->createQueueSet(name, placement), probe_);
}

}  // namespace perfbench
