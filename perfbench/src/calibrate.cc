#include "calibrate.hh"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

namespace perfbench
{

namespace
{

std::uint32_t
xorshift(std::uint32_t &x)
{
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    return x;
}

/**
 * Dependent loads along one pseudo-random cycle over 8 MiB: the affine
 * map i -> a i + c (mod 2^21) with a = 1 (mod 4) and c odd has full
 * period, and its strides defeat the prefetchers.
 */
std::uint64_t
chase()
{
    constexpr std::uint32_t mask = (1u << 21) - 1;
    std::vector<std::uint32_t> next(mask + 1);
    for (std::uint32_t i = 0; i <= mask; ++i)
        next[i] = (i * 1103515245u + 12345u) & mask;
    std::uint32_t at = 0;
    std::uint64_t acc = 0;
    for (unsigned s = 0; s < (1u << 15); ++s) {
        at = next[at];
        acc += at;
    }
    return acc;
}

/** Node allocation and lookups in a tree of up to 64 Ki entries. */
std::uint64_t
tree()
{
    std::map<std::uint32_t, std::uint32_t> m;
    std::uint32_t x = 2463534242u;
    std::uint64_t acc = 0;
    for (unsigned k = 0; k < 15000; ++k) {
        m[xorshift(x) & 0xffff] += k;
        const auto it = m.find((x >> 7) & 0xffff);
        if (it != m.end())
            acc += it->second;
    }
    return acc;
}

/** Data-dependent branches on register-resident state. */
std::uint64_t
branches()
{
    std::uint32_t x = 88172645u;
    std::uint64_t acc = 0;
    for (unsigned k = 0; k < 750000; ++k) {
        if (xorshift(x) & 1)
            acc += x >> 3;
        else
            acc ^= static_cast<std::uint64_t>(x) << 1;
        if ((x & 6) == 6)
            acc += k;
    }
    return acc;
}

/** An event-queue-like binary heap of 4 Ki timestamps. */
std::uint64_t
heap()
{
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>>
        q;
    std::uint32_t x = 1u;
    for (unsigned i = 0; i < 4096; ++i)
        q.push(xorshift(x) >> 8);
    std::uint64_t acc = 0;
    for (unsigned k = 0; k < 100000; ++k) {
        const std::uint64_t t = q.top();
        q.pop();
        acc += t;
        q.push(t + (xorshift(x) & 1023));
    }
    return acc;
}

} // namespace

double
calibrate()
{
    const auto t0 = std::chrono::steady_clock::now();
    // No single kind of work tracks the simulator: on the reference VM
    // the memory-latency part alone over-corrected host-speed swings by
    // about as much as the other three parts under-corrected them.
    volatile std::uint64_t sink = chase() + tree() + branches() + heap();
    (void)sink;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace perfbench
