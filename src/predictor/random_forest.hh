/**
 * @file
 * CART regression trees and a bagged random-forest regressor.
 *
 * The paper's dynamic-chunking predictor is "a lightweight random
 * forest model which predicts the execution time of a given batch"
 * (§3.6.1), trained on latency profiles collected from the Vidur
 * simulator harness. This is that component, built from scratch:
 * variance-reduction CART trees plus bootstrap aggregation, with
 * quantile prediction so the ensemble can be biased toward
 * under-predicting chunk latency (the paper tunes the model "to err
 * on the side of under-predicting").
 */

#ifndef QOSERVE_PREDICTOR_RANDOM_FOREST_HH
#define QOSERVE_PREDICTOR_RANDOM_FOREST_HH

#include <cstdint>
#include <vector>

#include "simcore/rng.hh"

namespace qoserve {

/** Feature-dimension cap for FeatureSupport tracking. */
inline constexpr int kMaxForestFeatures = 8;

/**
 * Axis-aligned region of feature space over which a forest
 * evaluation is provably constant.
 *
 * Every comparison a forest walk performs is `x[f] <= threshold`.
 * Recording, per feature, the tightest threshold passed on each side
 * yields a box (lo, hi] per axis: any query inside the box takes the
 * exact same branch at every node of every tree and therefore lands
 * on the exact same leaves — its prediction is bitwise identical to
 * the recorded one. This is what makes prediction memoisation safe
 * under drifting context features (the chunk-budget solver's cache
 * keys on these boxes rather than on exact feature equality).
 */
struct FeatureSupport
{
    /** Exclusive lower bounds per feature. */
    double lo[kMaxForestFeatures];

    /** Inclusive upper bounds per feature. */
    double hi[kMaxForestFeatures];

    /** Tracked feature count; 0 marks an invalid (unusable) support. */
    int dims = 0;

    /** Reset to the full space over @p d features. */
    void reset(int d);

    /** True if @p x lies strictly inside the box (lo < x[i] <= hi). */
    bool contains(const double *x, int d) const;
};

/**
 * One node of a flattened tree.
 *
 * Trees are stored in preorder, so an internal node's left child is
 * always the next array slot — only the right-child index is stored.
 * A leaf keeps its value in @ref key; an internal node keeps its split
 * threshold there.
 */
struct FlatNode
{
    double key = 0.0;          ///< Split threshold, or leaf value.
    std::uint32_t right = 0;   ///< Right-child index (internal only).
    std::int32_t feature = -1; ///< Split feature; -1 marks a leaf.
};

/** A training/evaluation sample: feature vector plus target. */
struct TrainSample
{
    std::vector<double> x;
    double y = 0.0;
};

/** Hyper-parameters shared by trees and forests. */
struct ForestParams
{
    /** Number of trees in the ensemble. */
    static constexpr int kNumTrees = 20;

    /** Maximum tree depth. */
    static constexpr int kMaxDepth = 12;

    /** Minimum samples required in a leaf. */
    static constexpr int kMinSamplesLeaf = 4;

    /** Candidate split thresholds evaluated per feature per node. */
    static constexpr int kSplitCandidates = 16;

    /** Fraction of the training set drawn (with replacement) per tree. */
    static constexpr double kBootstrapFraction = 1.0;
};

/**
 * A single CART regression tree, grown by greedy variance reduction.
 */
class RegressionTree
{
  public:
    /**
     * Fit the tree within the ForestParams growth limits.
     *
     * @param samples Training data; all x must share one length.
     * @param rng Source of randomness for split-candidate sampling.
     */
    void fit(const std::vector<TrainSample> &samples, Rng &rng);

    /** Predict the target for a feature vector. */
    double predict(const std::vector<double> &x) const;

    /** Number of nodes in the fitted tree (0 before fit). */
    std::size_t numNodes() const { return nodes_.size(); }

    /**
     * Append this tree's nodes to a flat preorder array.
     *
     * The builder already emits nodes in preorder (left child is
     * parent + 1), so flattening is a direct re-encoding with indices
     * rebased to @p out's current size.
     */
    void flattenInto(std::vector<FlatNode> &out) const;

  private:
    struct Node
    {
        int feature = -1;     ///< -1 marks a leaf.
        double threshold = 0.0;
        int left = -1;
        int right = -1;
        double value = 0.0;   ///< Leaf mean.
    };

    /** Reusable per-node buffers for the split scan. */
    struct SplitScratch
    {
        std::vector<std::uint32_t> order; ///< Indices sorted by feature.
        std::vector<double> values;       ///< Feature values, sorted.
        std::vector<double> prefY;        ///< Prefix sums of y.
        std::vector<double> prefY2;       ///< Prefix sums of y².
    };

    int build(const std::vector<TrainSample> &samples,
              std::vector<std::uint32_t> &idx, int lo, int hi, int depth,
              Rng &rng, SplitScratch &scratch);

    std::vector<Node> nodes_;
};

/**
 * A forest partially evaluated over a subset of its features.
 *
 * Produced by RandomForest::restrictToBox(): every split on a *fixed*
 * feature is resolved against the query it was built from, leaving a
 * (much smaller) forest that splits only on the *free* features. For
 * any query whose fixed coordinates stay inside the box reported at
 * construction, evaluating the restricted forest takes the exact
 * same branch sequence as the full forest — predictions are bitwise
 * identical. The chunk-budget solver uses this to turn its repeated
 * per-probe forest walks into walks of a few-KB structure that stays
 * resident in L1.
 */
class RestrictedForest
{
  public:
    /** True once restrictToBox() has populated this object. */
    bool valid() const { return !roots_.empty(); }

    /** Drop the restriction (valid() becomes false). */
    void clear();

    /**
     * Quantile of the per-tree predictions.
     *
     * Only the free features of @p x are read; bitwise identical to
     * RandomForest::predictQuantile on the full forest whenever the
     * fixed coordinates lie inside the construction box.
     */
    double predictQuantile(const double *x, int dims, double q) const;

    /**
     * Quantile prediction that narrows a caller-owned support box.
     *
     * This does NOT reset @p support: the caller initialises it
     * (reset()) and may issue several tracked predictions into the
     * same box, obtaining the intersection of their leaf-stability
     * regions — any query inside the final box reproduces every one
     * of those predictions bitwise.
     * The chunk-budget solver uses this to certify whole search
     * replays, not just single probes.
     */
    double predictQuantileTracked(const double *x, int dims, double q,
                                  FeatureSupport &support) const;

    /** Nodes retained by the restriction (diagnostics). */
    std::size_t numNodes() const { return flat_.size(); }

  private:
    friend class RandomForest;

    std::vector<FlatNode> flat_;
    std::vector<std::uint32_t> roots_;
    int maxDepth_ = 0;
    int featureDims_ = 0;
};

/**
 * Bagged ensemble of regression trees.
 */
class RandomForest
{
  public:
    /**
     * Fit ForestParams::kNumTrees trees on @p samples with
     * seed-derived randomness.
     *
     * Each tree's bootstrap draw and growth randomness come from an
     * independent stream split from (seed, tree index), so trees can
     * be trained concurrently: the fitted ensemble is bit-identical
     * for every @p jobs value.
     *
     * @param jobs Worker threads training trees (0 = hardware
     *        concurrency, 1 = serial).
     */
    void fit(const std::vector<TrainSample> &samples, std::uint64_t seed,
             int jobs = 1);

    /** Mean prediction across trees (flattened fast path). */
    double predict(const std::vector<double> &x) const;

    /**
     * Quantile of the per-tree predictions (flattened fast path).
     *
     * Quantiles below 0.5 bias the ensemble toward under-prediction,
     * which the chunk solver uses for conservatism.
     *
     * @param x Feature vector.
     * @param q Quantile in [0, 1].
     */
    double predictQuantile(const std::vector<double> &x, double q) const;

    /** Zero-allocation quantile prediction over a raw feature array. */
    double predictQuantile(const double *x, int dims, double q) const;

    /**
     * Partially evaluate the forest over an axis-aligned box.
     *
     * Splits the box falls entirely on one side of are resolved away;
     * splits that cut through it are kept and re-evaluated against
     * the actual query at prediction time. The result is exact: for
     * any query x with lo[i] < x[i] <= hi[i] on every axis, the
     * restricted forest's prediction is bitwise identical to the full
     * forest's — resolved splits decide identically for every point
     * of the box, and kept splits are decided per query. @p support
     * is set to the box itself, so a contains() test validates reuse.
     *
     * Unbounded axes (lo = -inf, hi = +inf) are fully free; narrow
     * axes shrink the emitted forest at the cost of more frequent
     * rebuilds when queries drift out of the box.
     */
    void restrictToBox(const double *lo, const double *hi, int dims,
                       RestrictedForest &out,
                       FeatureSupport &support) const;

    /**
     * Mean prediction via the original per-tree recursive walk.
     *
     * Kept as the ground truth for bitwise-equivalence tests of the
     * flattened path.
     */
    double predictReference(const std::vector<double> &x) const;

    /** Number of fitted trees. */
    std::size_t numTrees() const { return trees_.size(); }

    /** Individual fitted tree — with predictReference(), the ground
     *  truth for bitwise-equivalence tests of the flattened path. */
    const RegressionTree &tree(std::size_t t) const { return trees_[t]; }

    /** Total nodes in the flattened forest (diagnostics). */
    std::size_t numFlatNodes() const { return flat_.size(); }

    /** True once fit() has run. */
    bool trained() const { return !trees_.empty(); }

  private:
    double evalTree(std::uint32_t root, const double *x, int dims) const;

    std::vector<RegressionTree> trees_;

    /** All trees' nodes, concatenated; tree t starts at roots_[t]. */
    std::vector<FlatNode> flat_;
    std::vector<std::uint32_t> roots_;

    /** Deepest root-to-leaf edge count across trees: the lockstep
     *  walk runs exactly this many levels. */
    int maxTreeDepth_ = 0;

    /** 1 + max feature index any node tests: evaluation validates the
     *  query width once instead of per node. */
    int featureDims_ = 0;
};

} // namespace qoserve

#endif // QOSERVE_PREDICTOR_RANDOM_FOREST_HH
