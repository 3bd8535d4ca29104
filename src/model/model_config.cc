/**
 * @file
 * Model preset definitions.
 */

#include "model/model_config.hh"

namespace qoserve {

ModelConfig
llama3_8b()
{
    ModelConfig m;
    m.name = "Llama3-8B";
    m.numParams = 8'030'000'000LL;
    m.numLayers = 32;
    m.hiddenSize = 4096;
    m.numHeads = 32;
    m.numKvHeads = 8;
    m.headDim = 128;
    m.attention = AttentionKind::GQA;
    return m;
}

ModelConfig
qwen_7b()
{
    ModelConfig m;
    m.name = "Qwen-7B";
    m.numParams = 7'720'000'000LL;
    m.numLayers = 32;
    m.hiddenSize = 4096;
    m.numHeads = 32;
    m.numKvHeads = 32;
    m.headDim = 128;
    m.attention = AttentionKind::MHA;
    return m;
}

ModelConfig
llama3_70b()
{
    ModelConfig m;
    m.name = "Llama3-70B";
    m.numParams = 70'600'000'000LL;
    m.numLayers = 80;
    m.hiddenSize = 8192;
    m.numHeads = 64;
    m.numKvHeads = 8;
    m.headDim = 128;
    m.attention = AttentionKind::GQA;
    return m;
}

} // namespace qoserve
