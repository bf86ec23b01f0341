#include "util/histogram.hpp"

#include <algorithm>
#include <cstdio>

#include "util/errors.hpp"

namespace hc::util {

Histogram::Histogram(double lo, double hi, int buckets) : lo_(lo), hi_(hi) {
    require(hi > lo, "Histogram: hi must exceed lo");
    require(buckets > 0, "Histogram: need at least one bucket");
    buckets_.assign(static_cast<std::size_t>(buckets), 0);
}

void Histogram::add(double value) {
    const double span = hi_ - lo_;
    double position = (value - lo_) / span * static_cast<double>(buckets_.size());
    if (!(position >= 0)) position = 0;  // also catches NaN before the cast
    if (position >= static_cast<double>(buckets_.size()))
        position = static_cast<double>(buckets_.size()) - 1;
    ++buckets_[static_cast<std::size_t>(position)];
    samples_.push_back(value);
    sorted_ = false;
    ++count_;
    sum_ += value;
    if (count_ == 1) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
}

void Histogram::merge(const Histogram& other) {
    require(lo_ == other.lo_ && hi_ == other.hi_ && buckets_.size() == other.buckets_.size(),
            "Histogram::merge: bucketing mismatch");
    if (other.count_ == 0) return;  // empty source: nothing to fold in
    // An empty destination adopts the source's extrema outright — its own
    // min_/max_ are zero placeholders, not samples, and must not clamp.
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
    // Appending invalidates our sample order unless we had none and the
    // source is already sorted.
    const bool still_sorted = samples_.empty() && other.sorted_;
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_ = still_sorted;
    count_ += other.count_;
    sum_ += other.sum_;
}

double Histogram::mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0; }
double Histogram::min() const { return min_; }
double Histogram::max() const { return max_; }

double Histogram::percentile(double p) const {
    // Clamp rather than abort: out-of-range p snaps to the nearest bound
    // (and NaN to 0), so no rank outside the sample array is ever computed.
    if (!(p >= 0.0)) p = 0.0;
    if (p > 1.0) p = 1.0;
    if (samples_.empty()) return 0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double rank = p * static_cast<double>(samples_.size() - 1);
    const std::size_t lo_idx = static_cast<std::size_t>(rank);
    const std::size_t hi_idx = std::min(lo_idx + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo_idx);
    return samples_[lo_idx] * (1.0 - frac) + samples_[hi_idx] * frac;
}

std::string Histogram::render(int bar_width, const std::string& unit) const {
    std::uint64_t peak = 1;
    for (auto b : buckets_) peak = std::max(peak, b);
    std::string out;
    const double width = (hi_ - lo_) / static_cast<double>(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const double bucket_lo = lo_ + width * static_cast<double>(i);
        const double bucket_hi = bucket_lo + width;
        const int bar = static_cast<int>(static_cast<double>(buckets_[i]) /
                                         static_cast<double>(peak) *
                                         static_cast<double>(bar_width));
        char head[64];
        std::snprintf(head, sizeof head, "[%7.1f, %7.1f%s) ", bucket_lo, bucket_hi,
                      unit.c_str());
        out += head;
        out.append(static_cast<std::size_t>(bar), '#');
        out += ' ';
        out += std::to_string(buckets_[i]);
        out += '\n';
    }
    return out;
}

}  // namespace hc::util
