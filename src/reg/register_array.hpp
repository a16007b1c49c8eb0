// Arrays of single-writer multi-reader (SWMR) registers, and the concept the
// snapshot algorithms are written against.
//
// The paper restricts implementations to "single-writer, multi-reader atomic
// registers as the only shared objects" (Section 2). The snapshot algorithms
// in core/ are therefore templated on a *register array provider* satisfying
// SwmrRegisterArray: register j is written only by process j and readable by
// everyone. Two providers exist:
//
//   - SharedMemoryRegisterArray (here): BigAtomicRegister per process —
//     the in-memory instantiation used by most of the library.
//   - abd::AbdRegisterArray: the same interface implemented by majority
//     quorums over a simulated message-passing network (Section 6's remark
//     that applying the ABD emulation yields message-passing snapshots).
//
// Optional member: `void collect(ProcessId reader, std::vector<Rec>& out)`.
// When an array has it, core::UnboundedSwSnapshot calls it for a whole
// collect instead of n reads (dispatched at compile time, so arrays without
// it compile to the plain loop). Contract: afterwards out.size() == size()
// and out[j] equals what a read of register j by `reader` could return if
// that read were linearized at some point inside the call's interval —
// n reads that may overlap each other, but none outside the call.
// abd::AbdRegisterArray and abd::SocketRegisterArray implement it with one
// batched quorum round (plus at most one batched write-back).
#pragma once

#include <concepts>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/config.hpp"
#include "reg/big_register.hpp"

namespace asnap::reg {

/// Provider of n SWMR registers: register j written by process j only.
template <typename A, typename Rec>
concept SwmrRegisterArray = requires(A array, const A carray, ProcessId pid,
                                     Rec rec) {
  { carray.size() } -> std::convertible_to<std::size_t>;
  { array.read(pid, pid) } -> std::convertible_to<Rec>;  // read(reg j, by i)
  array.write(pid, std::move(rec));                      // write(own reg i)
};

/// In-memory SWMR register array: one BigAtomicRegister per process.
template <typename Rec>
class SharedMemoryRegisterArray {
 public:
  SharedMemoryRegisterArray(std::size_t n, const Rec& init) {
    regs_.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      regs_.push_back(std::make_unique<BigAtomicRegister<Rec>>(init));
    }
  }

  SharedMemoryRegisterArray(SharedMemoryRegisterArray&&) noexcept = default;
  SharedMemoryRegisterArray& operator=(SharedMemoryRegisterArray&&) noexcept =
      default;

  std::size_t size() const { return regs_.size(); }

  /// Process `reader` reads register `owner`. One primitive step.
  Rec read(ProcessId owner, ProcessId reader) const {
    (void)reader;
    ASNAP_ASSERT(owner < regs_.size());
    return regs_[owner]->read();
  }

  /// Process `owner` writes its own register. One primitive step.
  void write(ProcessId owner, Rec rec) {
    ASNAP_ASSERT(owner < regs_.size());
    regs_[owner]->write(std::move(rec));
  }

 private:
  std::vector<std::unique_ptr<BigAtomicRegister<Rec>>> regs_;
};

}  // namespace asnap::reg
