#include "linalg/mat61.h"

namespace cclique {

Mat61::Mat61(int n) : n_(n) {
  CC_REQUIRE(n >= 0, "matrix size must be non-negative");
  data_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
}

Mat61 Mat61::operator+(const Mat61& o) const {
  CC_REQUIRE(n_ == o.n_, "size mismatch");
  Mat61 out(n_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = Mersenne61::add(data_[i], o.data_[i]);
  }
  return out;
}

Mat61 Mat61::identity(int n) {
  Mat61 m(n);
  for (int i = 0; i < n; ++i) m.set(i, i, 1);
  return m;
}

Mat61 Mat61::random(int n, Rng& rng) {
  Mat61 m(n);
  for (auto& e : m.data_) e = rng.uniform(Mersenne61::kP);
  return m;
}

Mat61 Mat61::adjacency(const Graph& g) {
  Mat61 m(g.num_vertices());
  for (const Edge& e : g.edges()) {
    m.set(e.u, e.v, 1);
    m.set(e.v, e.u, 1);
  }
  return m;
}

Mat61 m61_multiply_schoolbook(const Mat61& a, const Mat61& b) {
  CC_REQUIRE(a.n() == b.n(), "size mismatch");
  const int n = a.n();
  Mat61 out(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      std::uint64_t acc = 0;
      for (int k = 0; k < n; ++k) {
        acc = Mersenne61::add(acc, Mersenne61::mul(a.get(i, k), b.get(k, j)));
      }
      out.set(i, j, acc);
    }
  }
  return out;
}

}  // namespace cclique
