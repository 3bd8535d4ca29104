/**
 * @file
 * perfbench_probe — times a fixed host-speed loop and prints the
 * seconds of each repetition as one JSON list.
 *
 *   perfbench_probe
 *
 * The loop is an event heap and a hash table, the simulator's mix of
 * branches, cache misses and floating point. It uses nothing from the
 * project and is built with fixed flags (see CMakeLists.txt), so its
 * time moves only with the host. perfbench/run.py runs it between
 * workload processes and scales host times by it (README, "Host
 * noise").
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

constexpr int kRepeats = 5;

double
probeSeconds()
{
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    auto uniform = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return static_cast<double>(x >> 11) * 0x1p-53;
    };
    using Entry = std::pair<double, std::uint32_t>;
    const auto start = std::chrono::steady_clock::now();
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    std::unordered_map<std::uint32_t, double> table;
    for (std::uint32_t i = 0; i < 4096; ++i)
        heap.push({uniform(), i});
    double acc = 0.0;
    for (int step = 0; step < 200000; ++step) {
        const Entry top = heap.top();
        heap.pop();
        double &v = table[static_cast<std::uint32_t>(uniform() * 65536.0)];
        v = 0.5 * v + top.first;
        acc += v;
        heap.push({top.first + uniform(), top.second});
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    // A result the compiler must keep, so the loop cannot be dropped.
    return acc > 0.0 ? elapsed.count() : -1.0;
}

} // namespace

int
main()
{
    std::printf("[");
    for (int i = 0; i < kRepeats; ++i) {
        const double s = probeSeconds();
        if (s < 0.0)
            return 1;
        std::printf("%s%.9g", i == 0 ? "" : ", ", s);
    }
    std::printf("]\n");
    return 0;
}
