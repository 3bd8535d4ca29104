/**
 * @file
 * GPU and replica hardware descriptions.
 *
 * Matches Table 1 of the paper: A100-80GB and H100-80GB devices, with
 * tensor-parallel (TP) replica configurations of 1, 2 and 4 GPUs.
 */

#ifndef QOSERVE_MODEL_HARDWARE_CONFIG_HH
#define QOSERVE_MODEL_HARDWARE_CONFIG_HH

#include <string>

#include "model/model_config.hh"

namespace qoserve {

/**
 * Static description of one GPU device.
 */
struct GpuConfig
{
    /** Human-readable name, e.g. "A100-80GB". */
    std::string name;

    /** Peak dense bf16 throughput, FLOP/s. */
    double peakFlops = 0.0;

    /** HBM bandwidth, bytes/s. */
    double memBandwidth = 0.0;

    /** Device memory, bytes. */
    double memCapacity = 0.0;

    /** Per-direction NVLink bandwidth for TP collectives, bytes/s. */
    double nvlinkBandwidth = 0.0;

    bool operator==(const GpuConfig &) const = default;
};

/** NVIDIA A100 80GB SXM. */
GpuConfig a100_80gb();

/** NVIDIA H100 80GB SXM. */
GpuConfig h100_80gb();

/**
 * A serving replica: one model instance sharded over tpDegree GPUs.
 */
struct ReplicaHwConfig
{
    ModelConfig model;
    GpuConfig gpu;
    int tpDegree = 1;

    /** GPUs consumed by one replica. */
    int gpusPerReplica() const { return tpDegree; }

    /**
     * KV-cache capacity in tokens across the replica.
     *
     * Device memory minus weights minus a fixed activation /
     * framework reservation, divided by KV bytes per token.
     */
    std::int64_t kvCapacityTokens() const;

    bool operator==(const ReplicaHwConfig &) const = default;
};

/** Llama3-8B on a single A100 (paper row 1). */
ReplicaHwConfig llama3_8b_a100_tp1();

/** Qwen-7B on two A100s with TP2 (paper row 2). */
ReplicaHwConfig qwen_7b_a100_tp2();

/** Llama3-70B on four H100s with TP4 (paper row 3). */
ReplicaHwConfig llama3_70b_h100_tp4();

} // namespace qoserve

#endif // QOSERVE_MODEL_HARDWARE_CONFIG_HH
