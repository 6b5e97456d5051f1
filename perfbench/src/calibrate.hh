/**
 * @file
 * A fixed host-speed probe. The benchmark's host times swing by tens of
 * percent on a shared machine while the work stays the same, so every
 * simulation is bracketed by this probe and host times are reported
 * scaled to a reference speed (see perfbench/README.md). The probe mixes
 * four kinds of work the simulator does: dependent loads over a working
 * set larger than the caches, tree-node allocation and lookup,
 * data-dependent branches and a binary heap. It must never change, or
 * scaled times stop being comparable.
 */

#ifndef NCP2_PERFBENCH_CALIBRATE_HH
#define NCP2_PERFBENCH_CALIBRATE_HH

namespace perfbench
{

/** Run the fixed probe once; returns its host seconds. */
double calibrate();

} // namespace perfbench

#endif // NCP2_PERFBENCH_CALIBRATE_HH
