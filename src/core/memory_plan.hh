/**
 * @file
 * Arena memory planner for the executor.
 *
 * planMemory() runs a liveness analysis over a lowered model's
 * instruction order and gives every materialized variable a *slot*:
 * its row class, width, backing and live range (first and last
 * instruction that references it). The live ranges are graph
 * independent; the byte sizes are not. When an ExecutionContext is
 * bound to a graph, MemoryPlan::pack() gives every arena-backed slot a
 * byte offset in the context's arena for that graph's node, edge and
 * unique-pair counts: two slots whose live ranges overlap never share
 * a byte, and any two that do not may. The context caches the packing
 * per count triple, backs the arena with pooled buffers that persist
 * across serving requests (steady-state serving performs no hot-path
 * tensor allocations), and the planner stamps the slot indices
 * straight into the lowered instances (GemmInstance operand slots,
 * traversal VarRef slots), replacing ensureTensor's string-keyed map
 * lookups with vector indexing.
 *
 * The packer runs two passes, each greedy by size at the lowest offset
 * no overlapping live range uses: first the slots first used in the
 * forward pass, whose extent is the *forward region*, then the slots
 * first used in the backward pass, which reuse forward bytes dead by
 * then or extend the arena past the forward region. A forward-only run
 * of a training plan therefore touches only the forward region.
 *
 * Inputs bound by the caller (the model input, RGCN norm data, the
 * training seed gradient) are *external*: never arena-backed. Two
 * variables are pinned because the caller reads them after execution:
 * the program output, which keeps a pooled buffer of its own outside
 * the arena, and — when training — the input-feature gradient, whose
 * live range runs to the end of the backward pass. Every other
 * variable, intermediate gradients included, frees its bytes after its
 * last use. When a backward function is supplied, liveness is computed
 * jointly over forward-then-backward instruction order, so forward
 * intermediates the backward pass reads stay live across the boundary.
 */

#ifndef HECTOR_CORE_MEMORY_PLAN_HH
#define HECTOR_CORE_MEMORY_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/inter_op_ir.hh"
#include "core/intra_op_ir.hh"

namespace hector::core
{

/** Row-domain class of a planned slot (sized per graph at bind time). */
enum class SlotRows
{
    Nodes,
    Edges,
    UniquePairs,
};

const char *toString(SlotRows r);

/** The row count of each SlotRows class on one bound graph. */
struct ArenaRows
{
    std::int64_t nodes = 0;
    std::int64_t edges = 0;
    std::int64_t pairs = 0;

    std::int64_t of(SlotRows r) const;
    bool operator==(const ArenaRows &) const = default;
};

/** A plan's byte offsets for one ArenaRows (MemoryPlan::pack). */
struct ArenaLayout
{
    ArenaRows rows;
    /** Byte offset of each arena-backed slot (indexed like
     *  MemoryPlan::slots; 0 for the other backings). */
    std::vector<std::size_t> offset;
    /** Extent of the slots first used in the forward pass: the bytes
     *  a forward-only run touches. Backward slots lie either wholly
     *  inside it or wholly past it. */
    std::size_t forwardBytes = 0;
    /** Extent of the whole arena (>= forwardBytes). */
    std::size_t totalBytes = 0;
    /** Bytes of the own-buffer (output) slot, outside the arena. */
    std::size_t ownBytes = 0;

    /** Device bytes one context holds for this layout. */
    std::size_t residentBytes() const { return totalBytes + ownBytes; }
};

struct MemoryPlan
{
    /** Where a slot's bytes live. */
    enum class Backing
    {
        /** A byte range of the context's arena, packed by liveness. */
        Arena,
        /** Bound by the caller (bindExternal); never arena-backed. */
        External,
        /** A pooled buffer of its own: the program output. */
        Own,
    };

    /** One planned variable. Liveness is in instruction indices over
     *  the joint forward[+backward] order. */
    struct Slot
    {
        std::string var;
        SlotRows rows = SlotRows::Nodes;
        std::int64_t cols = 0;
        Backing backing = Backing::Arena;
        int firstUse = -1;
        /** Runs to the last instruction for the feature gradient. */
        int lastUse = -1;

        std::size_t
        bytes(const ArenaRows &r) const
        {
            return static_cast<std::size_t>(r.of(rows)) *
                   static_cast<std::size_t>(cols) * sizeof(float);
        }

        bool
        overlaps(const Slot &o) const
        {
            return firstUse <= o.lastUse && o.firstUse <= lastUse;
        }
    };

    std::vector<Slot> slots;
    /** Instructions of the forward function; a slot whose firstUse is
     *  below this is packed into the forward region. */
    int forwardSteps = 0;

    /** Slot index of @p name, or -1 when the plan does not cover it. */
    int slotOf(const std::string &name) const;

    /** Byte offsets of every arena-backed slot for @p rows. */
    ArenaLayout pack(const ArenaRows &rows) const;

  private:
    std::map<std::string, int> index_;
    friend MemoryPlan planMemory(const Program &, LoweredFunction &,
                                 const Program *, LoweredFunction *);
};

/**
 * Plan @p fwdFn (and @p bwdFn when training) over the declared
 * variables of the corresponding programs, stamping slot indices and
 * zero-initialization lists into the lowered functions.
 *
 * @param bwd / @param bwdFn  null for inference-only models.
 */
MemoryPlan planMemory(const Program &fwd, LoweredFunction &fwdFn,
                      const Program *bwd, LoweredFunction *bwdFn);

} // namespace hector::core

#endif // HECTOR_CORE_MEMORY_PLAN_HH
