#include "feedback/oracle.h"

#include <string>

namespace alex::feedback {
namespace {

// FNV-1a over a byte string, continuing from `h`.
uint64_t Fnv1a(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// SplitMix64 finalizer — turns a structured hash into uniform bits.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

double HashToUnit(uint64_t seed, const linking::Link& link, uint64_t k) {
  uint64_t h = Fnv1a(link.left, 0xcbf29ce484222325ull);
  h ^= 0x01;  // separator so ("ab", "c") and ("a", "bc") differ
  h *= 0x100000001b3ull;
  h = Fnv1a(link.right, h);
  h = Mix(h ^ Mix(seed) ^ Mix(k * 0x632be59bd9b4e019ull + 1));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool Oracle::Feedback(const linking::Link& link) {
  const bool correct = truth_->Contains(link);
  items_.fetch_add(1, std::memory_order_relaxed);
  if (error_rate_ <= 0.0) return correct;
  uint64_t k;
  {
    std::lock_guard<std::mutex> lock(mu_);
    k = draw_counts_[link]++;
  }
  if (HashToUnit(seed_, link, k) < error_rate_) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return !correct;
  }
  return correct;
}

}  // namespace alex::feedback
