#include "radio/hack_model.hpp"

#include <cmath>

namespace tcast::radio {

HackReceptionModel::HackReceptionModel(double fn1, double beta)
    : fn1_(fn1), beta_(beta) {
  TCAST_CHECK(fn1 >= 0.0 && fn1 <= 1.0);
  TCAST_CHECK(beta >= 0.0 && beta <= 1.0);
  if (fn1_ == 0.0) return;  // miss_ is already +0.0 = 0 · β^(k−1)
  for (std::size_t k = 1; k <= kTabulated; ++k) miss_[k - 1] = miss_formula(k);
}

double HackReceptionModel::miss_formula(std::size_t k) const {
  return fn1_ * std::pow(beta_, static_cast<double>(k - 1));
}

}  // namespace tcast::radio
