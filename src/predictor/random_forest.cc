/**
 * @file
 * CART / random-forest implementation.
 */

#include "predictor/random_forest.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>

#include "simcore/logging.hh"
#include "simcore/thread_pool.hh"

namespace qoserve {

void
FeatureSupport::reset(int d)
{
    QOSERVE_ASSERT(d > 0 && d <= kMaxForestFeatures,
                   "unsupported feature count ", d);
    dims = d;
    for (int i = 0; i < d; ++i) {
        lo[i] = -std::numeric_limits<double>::infinity();
        hi[i] = std::numeric_limits<double>::infinity();
    }
}

bool
FeatureSupport::contains(const double *x, int d) const
{
    if (d != dims || dims == 0)
        return false;
    for (int i = 0; i < d; ++i) {
        if (!(lo[i] < x[i] && x[i] <= hi[i]))
            return false;
    }
    return true;
}

namespace {

/** Mean of targets over an index range. */
double
targetMean(const std::vector<TrainSample> &samples,
           const std::vector<std::uint32_t> &idx, int lo, int hi)
{
    double sum = 0.0;
    for (int i = lo; i < hi; ++i)
        sum += samples[idx[i]].y;
    return sum / (hi - lo);
}

/** Sum of squared error around the mean over an index range. */
double
targetSse(const std::vector<TrainSample> &samples,
          const std::vector<std::uint32_t> &idx, int lo, int hi)
{
    double mean = targetMean(samples, idx, lo, hi);
    double sse = 0.0;
    for (int i = lo; i < hi; ++i) {
        double d = samples[idx[i]].y - mean;
        sse += d * d;
    }
    return sse;
}

} // namespace

int
RegressionTree::build(const std::vector<TrainSample> &samples,
                      std::vector<std::uint32_t> &idx, int lo, int hi,
                      int depth, Rng &rng, SplitScratch &scratch)
{
    int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_id].value = targetMean(samples, idx, lo, hi);

    int n = hi - lo;
    if (depth >= ForestParams::kMaxDepth ||
        n < 2 * ForestParams::kMinSamplesLeaf)
        return node_id;

    double parent_sse = targetSse(samples, idx, lo, hi);
    if (parent_sse <= 1e-30)
        return node_id;

    int num_features = static_cast<int>(samples[idx[lo]].x.size());
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_sse = parent_sse;

    for (int f = 0; f < num_features; ++f) {
        // Sort the node's samples by this feature once, then every
        // candidate threshold resolves to a split position by binary
        // search against prefix sums of (y, y²) — O((n + C) log n)
        // per feature instead of rescanning all n samples for each
        // of the C candidates. The RNG draw sequence is unchanged.
        scratch.order.assign(idx.begin() + lo, idx.begin() + hi);
        std::sort(scratch.order.begin(), scratch.order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return samples[a].x[f] < samples[b].x[f];
                  });

        double fmin = samples[scratch.order.front()].x[f];
        double fmax = samples[scratch.order.back()].x[f];
        if (fmin >= fmax)
            continue;

        scratch.values.resize(n);
        scratch.prefY.resize(n + 1);
        scratch.prefY2.resize(n + 1);
        scratch.prefY[0] = 0.0;
        scratch.prefY2[0] = 0.0;
        for (int i = 0; i < n; ++i) {
            const TrainSample &s = samples[scratch.order[i]];
            scratch.values[i] = s.x[f];
            scratch.prefY[i + 1] = scratch.prefY[i] + s.y;
            scratch.prefY2[i + 1] = scratch.prefY2[i] + s.y * s.y;
        }
        double total_y = scratch.prefY[n];
        double total_y2 = scratch.prefY2[n];

        for (int c = 0; c < ForestParams::kSplitCandidates; ++c) {
            double thr = rng.uniform(fmin, fmax);
            // Left side takes values <= thr.
            int ln = static_cast<int>(
                std::upper_bound(scratch.values.begin(),
                                 scratch.values.end(), thr) -
                scratch.values.begin());
            int rn = n - ln;
            if (ln < ForestParams::kMinSamplesLeaf ||
                rn < ForestParams::kMinSamplesLeaf)
                continue;
            double ls = scratch.prefY[ln];
            double lss = scratch.prefY2[ln];
            double rs = total_y - ls;
            double rss = total_y2 - lss;
            double sse = (lss - ls * ls / ln) + (rss - rs * rs / rn);
            if (sse < best_sse) {
                best_sse = sse;
                best_feature = f;
                best_threshold = thr;
            }
        }
    }

    if (best_feature < 0)
        return node_id;

    auto mid_it = std::partition(
        idx.begin() + lo, idx.begin() + hi,
        [&](std::uint32_t i) {
            return samples[i].x[best_feature] <= best_threshold;
        });
    int mid = static_cast<int>(mid_it - idx.begin());
    QOSERVE_ASSERT(mid > lo && mid < hi, "degenerate partition");

    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;
    int left = build(samples, idx, lo, mid, depth + 1, rng, scratch);
    int right = build(samples, idx, mid, hi, depth + 1, rng, scratch);
    nodes_[node_id].left = left;
    nodes_[node_id].right = right;
    return node_id;
}

void
RegressionTree::fit(const std::vector<TrainSample> &samples, Rng &rng)
{
    QOSERVE_ASSERT(!samples.empty(), "empty training set");
    nodes_.clear();
    std::vector<std::uint32_t> idx(samples.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = static_cast<std::uint32_t>(i);
    SplitScratch scratch;
    build(samples, idx, 0, static_cast<int>(idx.size()), 0, rng, scratch);
}

void
RegressionTree::flattenInto(std::vector<FlatNode> &out) const
{
    QOSERVE_ASSERT(!nodes_.empty(), "flattenInto() before fit()");
    auto base = static_cast<std::uint32_t>(out.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node &n = nodes_[i];
        FlatNode f;
        if (n.feature < 0) {
            f.key = n.value;
        } else {
            // Preorder invariant from build(): the left child is the
            // next node, so only the right index needs storing.
            QOSERVE_ASSERT(n.left == static_cast<int>(i) + 1,
                           "tree is not in preorder");
            f.key = n.threshold;
            f.feature = n.feature;
            f.right = base + static_cast<std::uint32_t>(n.right);
        }
        out.push_back(f);
    }
}

double
RegressionTree::predict(const std::vector<double> &x) const
{
    QOSERVE_ASSERT(!nodes_.empty(), "predict() before fit()");
    int node = 0;
    while (nodes_[node].feature >= 0) {
        const Node &n = nodes_[node];
        QOSERVE_ASSERT(n.feature < static_cast<int>(x.size()),
                       "feature vector too short");
        node = x[n.feature] <= n.threshold ? n.left : n.right;
    }
    return nodes_[node].value;
}

void
RandomForest::fit(const std::vector<TrainSample> &samples,
                  std::uint64_t seed, int jobs)
{
    QOSERVE_ASSERT(!samples.empty(), "empty training set");

    trees_.assign(ForestParams::kNumTrees, RegressionTree{});
    Rng root(seed);
    std::size_t draw =
        std::max<std::size_t>(1, static_cast<std::size_t>(
            ForestParams::kBootstrapFraction * samples.size()));

    // Each tree's randomness is split from (seed, t) rather than
    // drawn from a shared stream, so the trees can be grown in any
    // order — or concurrently — with bit-identical results.
    par::parallelFor(
        jobs, static_cast<std::size_t>(ForestParams::kNumTrees),
        [&](std::size_t t) {
            Rng tree_rng = root.split("tree" + std::to_string(t));
            std::vector<TrainSample> boot;
            boot.reserve(draw);
            for (std::size_t i = 0; i < draw; ++i) {
                auto j = static_cast<std::size_t>(tree_rng.uniformInt(
                    0, static_cast<std::int64_t>(samples.size()) - 1));
                boot.push_back(samples[j]);
            }
            trees_[t].fit(boot, tree_rng);
        });

    // Flatten the trained ensemble into one contiguous node array so
    // the hot evaluation path walks cache-friendly 16-byte records
    // instead of pointer-chasing per-tree vectors.
    flat_.clear();
    roots_.clear();
    roots_.reserve(trees_.size());
    std::size_t total = 0;
    for (const auto &t : trees_)
        total += t.numNodes();
    flat_.reserve(total);
    for (const auto &t : trees_) {
        roots_.push_back(static_cast<std::uint32_t>(flat_.size()));
        t.flattenInto(flat_);
    }

    // Depth bound and feature width for the lockstep walk: the walk
    // runs a fixed number of levels (leaves self-loop), and the query
    // width is validated once per evaluation instead of per node.
    maxTreeDepth_ = 0;
    featureDims_ = 0;
    for (std::size_t t = 0; t < roots_.size(); ++t) {
        std::uint32_t begin = roots_[t];
        std::uint32_t end = t + 1 < roots_.size()
                                ? roots_[t + 1]
                                : static_cast<std::uint32_t>(flat_.size());
        // Preorder layout: a node's depth is its parent's plus one,
        // and every node's parent precedes it, so one forward pass
        // with a depth stack suffices.
        std::vector<int> depth(end - begin, 0);
        for (std::uint32_t i = begin; i < end; ++i) {
            const FlatNode &n = flat_[i];
            maxTreeDepth_ = std::max(maxTreeDepth_, depth[i - begin]);
            if (n.feature < 0)
                continue;
            featureDims_ = std::max(featureDims_, n.feature + 1);
            depth[i + 1 - begin] = depth[i - begin] + 1;
            depth[n.right - begin] = depth[i - begin] + 1;
        }
    }
}

double
RandomForest::evalTree(std::uint32_t root, const double *x,
                       int dims) const
{
    QOSERVE_ASSERT(dims >= featureDims_, "feature vector too short");
    const FlatNode *nodes = flat_.data();
    std::uint32_t node = root;
    std::int32_t f;
    while ((f = nodes[node].feature) >= 0) {
        // Branchless child select: left child is node + 1 by layout.
        node = x[f] <= nodes[node].key ? node + 1 : nodes[node].right;
    }
    return nodes[node].key;
}

namespace {

constexpr int kTrees = ForestParams::kNumTrees;

/** Per-tree predictions of one query, one slot per tree. */
using TreePreds = std::array<double, kTrees>;

/**
 * Visit Batcher's odd-even merge-sort compare-exchanges for kTrees
 * inputs, in network order.
 */
template <typename Visit>
constexpr void
forEachComparator(Visit &&visit)
{
    for (int p = 1; p < kTrees; p <<= 1) {
        for (int k = p; k >= 1; k >>= 1) {
            for (int j = k % p; j + k < kTrees; j += 2 * k) {
                for (int i = 0; i < k && i + j + k < kTrees; ++i) {
                    if ((i + j) / (2 * p) == (i + j + k) / (2 * p))
                        visit(i + j, i + j + k);
                }
            }
        }
    }
}

struct Comparator
{
    int a = 0;
    int b = 0;
};

constexpr std::size_t kNetworkSize = [] {
    std::size_t n = 0;
    forEachComparator([&n](int, int) { ++n; });
    return n;
}();

/**
 * The compare-exchange schedule that sorts one query's tree
 * predictions, built at compile time. A fixed network sorts with
 * min/max selects only — no data-dependent branches — which matters
 * because the quantile sort runs once per chunk-solver probe and
 * mispredicted comparison sorts dominated that path.
 */
constexpr std::array<Comparator, kNetworkSize> kSortNetwork = [] {
    std::array<Comparator, kNetworkSize> net{};
    std::size_t n = 0;
    forEachComparator([&](int a, int b) { net[n++] = {a, b}; });
    return net;
}();

/** Shared quantile-of-tree-predictions kernel. */
double
quantileOfPreds(TreePreds &preds, double q)
{
    // The interpolation reads only the lo-th and (lo+1)-th smallest
    // values; the network places exactly the doubles a sort would
    // there, so this is bitwise identical to sort-and-interpolate.
    double pos = q * (kTrees - 1);
    auto lo = static_cast<std::size_t>(pos);
    auto hi = std::min<std::size_t>(lo + 1, kTrees - 1);
    double frac = pos - static_cast<double>(lo);
    for (Comparator c : kSortNetwork) {
        double x = preds[c.a], y = preds[c.b];
        preds[c.a] = std::min(x, y);
        preds[c.b] = std::max(x, y);
    }
    return preds[lo] * (1.0 - frac) + preds[hi] * frac;
}

/**
 * Lockstep walk shared by the full and restricted forests: each
 * tree's node chain is serially dependent, but steps of *different*
 * trees are independent, so advancing every tree one level per pass
 * keeps many node fetches in flight instead of draining one 12-deep
 * chain at a time. Leaves self-loop (their feature is negative) until
 * the deepest tree finishes; all selects compile to conditional
 * moves.
 */
void
lockstepFill(const FlatNode *nodes, const std::uint32_t *roots,
             int max_depth, const double *x, TreePreds &preds)
{
    std::uint32_t cur[kTrees];
    for (int t = 0; t < kTrees; ++t)
        cur[t] = roots[t];
    for (int level = 0; level < max_depth; ++level) {
        for (int t = 0; t < kTrees; ++t) {
            const FlatNode &nd = nodes[cur[t]];
            bool leaf = nd.feature < 0;
            std::int32_t f = leaf ? 0 : nd.feature;
            std::uint32_t next = x[f] <= nd.key ? cur[t] + 1 : nd.right;
            cur[t] = leaf ? cur[t] : next;
        }
    }
    for (int t = 0; t < kTrees; ++t)
        preds[t] = nodes[cur[t]].key;
}

} // namespace

void
RestrictedForest::clear()
{
    flat_.clear();
    roots_.clear();
    maxDepth_ = 0;
    featureDims_ = 0;
}

double
RestrictedForest::predictQuantile(const double *x, int dims,
                                  double q) const
{
    QOSERVE_ASSERT(valid(), "predictQuantile() on an empty restriction");
    QOSERVE_ASSERT(dims >= featureDims_, "feature vector too short");
    QOSERVE_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    TreePreds preds;
    lockstepFill(flat_.data(), roots_.data(), maxDepth_, x, preds);
    return quantileOfPreds(preds, q);
}

double
RestrictedForest::predictQuantileTracked(const double *x, int dims,
                                         double q,
                                         FeatureSupport &support) const
{
    QOSERVE_ASSERT(valid(), "predictQuantileTracked() on an empty "
                            "restriction");
    QOSERVE_ASSERT(dims >= featureDims_, "feature vector too short");
    QOSERVE_ASSERT(support.dims >= featureDims_,
                   "support not initialised by the caller");
    const FlatNode *nodes = flat_.data();
    TreePreds preds;
    for (int t = 0; t < kTrees; ++t) {
        std::uint32_t node = roots_[t];
        std::int32_t f;
        while ((f = nodes[node].feature) >= 0) {
            double thr = nodes[node].key;
            if (x[f] <= thr) {
                if (thr < support.hi[f])
                    support.hi[f] = thr;
                node = node + 1;
            } else {
                if (thr > support.lo[f])
                    support.lo[f] = thr;
                node = nodes[node].right;
            }
        }
        preds[t] = nodes[node].key;
    }
    return quantileOfPreds(preds, q);
}

void
RandomForest::restrictToBox(const double *lo, const double *hi, int dims,
                            RestrictedForest &out,
                            FeatureSupport &support) const
{
    QOSERVE_ASSERT(trained(), "restrictToBox() before fit()");
    QOSERVE_ASSERT(dims >= featureDims_, "feature vector too short");
    support.reset(dims);
    for (int i = 0; i < dims; ++i) {
        QOSERVE_ASSERT(lo[i] < hi[i], "empty restriction box on axis ",
                       i);
        support.lo[i] = lo[i];
        support.hi[i] = hi[i];
    }
    out.clear();
    out.featureDims_ = featureDims_;
    out.roots_.reserve(roots_.size());

    // Preorder re-emission. A split with the whole box on one side is
    // resolved: every in-box query (lo < x <= hi) takes that branch,
    // since hi <= thr forces x <= thr and lo >= thr forces x > thr.
    // Box-crossing splits are kept with both subtrees; the left child
    // lands at parent + 1 by construction, preserving the flat layout
    // the lockstep walk expects. Depth counts emitted edges only,
    // giving the restricted walk its (much smaller) level bound.
    //
    // The walk is iterative with an explicit right-subtree stack: the
    // source forest is far larger than cache, so the traversal is
    // bound by serial node-fetch latency. Prefetching each deferred
    // right subtree when it is pushed overlaps its miss with the
    // entire emission of the left subtree.
    constexpr std::uint32_t kPatchNone = 0xffffffffu;
    constexpr std::uint32_t kPatchRoot = 0xfffffffeu;
    struct Deferred
    {
        std::uint32_t src;   ///< Source index of the right subtree.
        std::uint32_t patch; ///< Emitted parent awaiting its .right.
        int depth;           ///< Emitted depth of the subtree root.
    };
    const FlatNode *nodes = flat_.data();
    std::vector<Deferred> stack;
    stack.reserve(static_cast<std::size_t>(maxTreeDepth_) + 1);
    for (std::uint32_t root : roots_) {
        std::uint32_t cur = root;
        std::uint32_t patch = kPatchRoot;
        int depth = 0;
        while (true) {
            const FlatNode &nd = nodes[cur];
            std::int32_t f = nd.feature;
            if (f >= 0) {
                if (hi[f] <= nd.key) {
                    cur = cur + 1;
                    continue;
                }
                if (lo[f] >= nd.key) {
                    cur = nd.right;
                    continue;
                }
            }
            auto idx = static_cast<std::uint32_t>(out.flat_.size());
            out.flat_.push_back(nd);
            if (patch == kPatchRoot)
                out.roots_.push_back(idx);
            else if (patch != kPatchNone)
                out.flat_[patch].right = idx;
            patch = kPatchNone;
            if (f >= 0) {
                __builtin_prefetch(&nodes[nd.right]);
                stack.push_back({nd.right, idx, depth + 1});
                cur = cur + 1;
                ++depth;
                continue;
            }
            out.maxDepth_ = std::max(out.maxDepth_, depth);
            if (stack.empty())
                break;
            Deferred top = stack.back();
            stack.pop_back();
            cur = top.src;
            patch = top.patch;
            depth = top.depth;
        }
    }
}

double
RandomForest::predict(const std::vector<double> &x) const
{
    QOSERVE_ASSERT(trained(), "predict() before fit()");
    auto dims = static_cast<int>(x.size());
    double sum = 0.0;
    for (std::uint32_t root : roots_)
        sum += evalTree(root, x.data(), dims);
    return sum / static_cast<double>(trees_.size());
}

double
RandomForest::predictQuantile(const std::vector<double> &x, double q) const
{
    return predictQuantile(x.data(), static_cast<int>(x.size()), q);
}

double
RandomForest::predictQuantile(const double *x, int dims, double q) const
{
    QOSERVE_ASSERT(trained(), "predictQuantile() before fit()");
    QOSERVE_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    QOSERVE_ASSERT(dims >= featureDims_, "feature vector too short");
    TreePreds preds;
    lockstepFill(flat_.data(), roots_.data(), maxTreeDepth_, x, preds);
    return quantileOfPreds(preds, q);
}

double
RandomForest::predictReference(const std::vector<double> &x) const
{
    QOSERVE_ASSERT(trained(), "predictReference() before fit()");
    double sum = 0.0;
    for (const auto &t : trees_)
        sum += t.predict(x);
    return sum / static_cast<double>(trees_.size());
}

} // namespace qoserve
