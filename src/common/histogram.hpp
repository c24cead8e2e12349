// Fixed-width-bin histogram used for distribution figures (Fig. 11) and for
// diagnostics (the conformance harness's wrong-answer-by-loss tally).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tcast {

class Histogram {
 public:
  /// Bins [lo, hi) into `bins` equal-width cells; out-of-range samples are
  /// clamped into the first/last cell so mass is never silently dropped.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);

  std::size_t bin_count() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  double bin_center(std::size_t i) const;
  double count(std::size_t i) const { return counts_[i]; }
  double total() const { return total_; }

  /// Fraction of mass in bin i (0 if empty histogram).
  double density(std::size_t i) const;

  /// Approximate quantile (linear within bins). q in [0, 1].
  double quantile(double q) const;

  /// Renders a horizontal ASCII bar chart, `width` chars for the modal bin.
  std::string ascii(std::size_t width = 50) const;

 private:
  double lo_, hi_, bin_width_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

}  // namespace tcast
