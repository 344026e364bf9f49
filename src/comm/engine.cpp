#include "comm/engine.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "util/math_util.h"

namespace cclique {

int cc_thread_count() {
  const char* env = std::getenv("CC_THREADS");
  if (env == nullptr || *env == '\0') {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 1 || v > 1024) {
    return 1;  // unparseable or out of range: fail safe to serial
  }
  return static_cast<int>(v);
}

// ---------------------------------------------------------------- ThreadPool

struct ThreadPool::Shared {
  /// Serializes run_indexed callers (a pool is shared between engines).
  std::mutex job_mutex;
  /// Guards every field below.
  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable job_done;
  const std::function<void(int)>* fn = nullptr;
  int count = 0;
  int next = 0;     ///< next unclaimed index of the current job
  int pending = 0;  ///< indices not yet completed
  std::uint64_t generation = 0;
  bool stop = false;
  // First (lowest-index) exception observed this job.
  int error_index = -1;
  std::exception_ptr error;
  std::vector<std::thread> workers;

  // Claims and runs indices of job `gen` until exhausted. Caller and
  // workers share this. Tickets are claimed under the mutex with a
  // generation check, so a straggler that loops once more after the job's
  // last index completed can never touch the *next* job's state (the
  // caller only resets it, under the same mutex, after pending hit 0).
  void drain(std::uint64_t gen) {
    for (;;) {
      int i;
      const std::function<void(int)>* f;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (generation != gen || next >= count) return;
        i = next++;
        f = fn;
      }
      std::exception_ptr err;
      try {
        (*f)(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (err && (error_index < 0 || i < error_index)) {
        error_index = i;
        error = err;
      }
      if (--pending == 0) job_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int threads) : threads_(threads), shared_(new Shared) {
  CC_REQUIRE(threads >= 1, "thread pool needs at least one thread");
  Shared* s = shared_.get();
  for (int t = 1; t < threads; ++t) {
    s->workers.emplace_back([s] {
      std::uint64_t seen = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(s->mutex);
          s->work_ready.wait(lock, [&] { return s->stop || s->generation != seen; });
          if (s->stop) return;
          seen = s->generation;
        }
        s->drain(seen);
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    shared_->stop = true;
  }
  shared_->work_ready.notify_all();
  for (std::thread& w : shared_->workers) w.join();
}

void ThreadPool::run_indexed(int count, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  Shared* s = shared_.get();
  std::lock_guard<std::mutex> job(s->job_mutex);
  if (s->workers.empty()) {
    // Serial mode: same contract (run everything, lowest-index exception).
    int error_index = -1;
    std::exception_ptr error;
    for (int i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (error_index < 0) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  std::uint64_t gen;
  {
    std::lock_guard<std::mutex> lock(s->mutex);
    s->fn = &fn;
    s->count = count;
    s->next = 0;
    s->pending = count;
    s->error_index = -1;
    s->error = nullptr;
    gen = ++s->generation;
  }
  s->work_ready.notify_all();
  s->drain(gen);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(s->mutex);
    s->job_done.wait(lock, [&] { return s->pending == 0; });
    error = s->error;
    s->fn = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

std::shared_ptr<ThreadPool> shared_thread_pool(int threads) {
  static std::mutex cache_mutex;
  static std::map<int, std::shared_ptr<ThreadPool>> cache;
  std::lock_guard<std::mutex> lock(cache_mutex);
  auto it = cache.find(threads);
  if (it == cache.end()) {
    it = cache.emplace(threads, std::make_shared<ThreadPool>(threads)).first;
  }
  return it->second;
}

// ---------------------------------------------------------------- EngineCore

EngineCore::EngineCore(int n, int bandwidth) : n_(n), bandwidth_(bandwidth) {
  CC_REQUIRE(n >= 1, "need at least one player");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be at least 1 bit");
  charges_.resize(static_cast<std::size_t>(n));
  reset_stats();
}

void EngineCore::set_cut(std::vector<int> side) {
  CC_REQUIRE(static_cast<int>(side.size()) == n_, "cut assignment size mismatch");
  for (int s : side) CC_REQUIRE(s == 0 || s == 1, "cut side must be 0 or 1");
  cut_side_ = std::move(side);
}

void EngineCore::reset_stats() {
  stats_ = CommStats{};
  stats_.per_player_sent_bits.assign(static_cast<std::size_t>(n_), 0);
  stats_.per_player_recv_bits.assign(static_cast<std::size_t>(n_), 0);
}

void EngineCore::send_phase(const std::function<void(int, PlayerCharge&)>& fn) {
  if (pool_ == nullptr) pool_ = shared_thread_pool(cc_thread_count());
  for (PlayerCharge& c : charges_) c.reset();
  pool_->run_indexed(n_, [&](int player) {
    fn(player, charges_[static_cast<std::size_t>(player)]);
  });
  // No exception: commit charges in player order.
  for (int i = 0; i < n_; ++i) {
    const PlayerCharge& c = charges_[static_cast<std::size_t>(i)];
    stats_.total_bits += c.bits;
    stats_.total_messages += c.messages;
    stats_.cut_bits += c.cut_bits;
    if (c.max_edge_bits > stats_.max_edge_bits_in_round) {
      stats_.max_edge_bits_in_round = c.max_edge_bits;
    }
    stats_.per_player_sent_bits[static_cast<std::size_t>(i)] += c.bits;
  }
  ++stats_.rounds;
}

namespace {

/// What send_phase commits over all rounds for one `bits`-bit stream from
/// `sender` in b-bit chunks, receives aside (an empty stream adds nothing).
void commit_stream(CommStats& s, std::size_t sender, std::uint64_t bits, std::uint64_t b,
                   bool crosses_cut) {
  s.total_bits += bits;
  s.total_messages += ceil_div(bits, b);
  s.max_edge_bits_in_round = std::max(s.max_edge_bits_in_round, std::min(bits, b));
  s.per_player_sent_bits[sender] += bits;
  if (crosses_cut) s.cut_bits += bits;
}

}  // namespace

void EngineCore::charge_stream(const LengthMatrix& len, int rounds) {
  const std::size_t n = static_cast<std::size_t>(n_);
  const std::uint64_t b = static_cast<std::uint64_t>(bandwidth_);
  CC_REQUIRE(rounds >= 0 && len.size() == n, "stream lengths must be n x n");
  for (std::size_t i = 0; i < n; ++i) {
    CC_REQUIRE(len[i].size() == n && len[i][i] == 0,
               "stream lengths must be n x n with an empty diagonal");
    for (const std::size_t bits : len[i]) CC_MODEL(bits <= rounds * b, "stream exceeds its rounds");
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      commit_stream(stats_, i, len[i][j], b, has_cut() && cut_side_[i] != cut_side_[j]);
      stats_.per_player_recv_bits[j] += len[i][j];
    }
  }
  stats_.rounds += rounds;
}

void EngineCore::charge_board(const std::vector<std::size_t>& len, int rounds) {
  const std::uint64_t b = static_cast<std::uint64_t>(bandwidth_);
  CC_REQUIRE(rounds >= 0 && len.size() == static_cast<std::size_t>(n_),
             "one board write per player");
  std::uint64_t written = 0;
  for (const std::size_t bits : len) {
    CC_MODEL(bits <= rounds * b, "board write exceeds its rounds");
    written += bits;
  }
  // Every written bit crosses the network (and a registered cut) once and
  // reaches the n-1 other players.
  for (std::size_t i = 0; i < len.size(); ++i) {
    commit_stream(stats_, i, len[i], b, has_cut());
    stats_.per_player_recv_bits[i] += written - len[i];
  }
  stats_.rounds += rounds;
}

}  // namespace cclique
