#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/bytes.hpp"

namespace onelab::util {

class SharedBytesCore;

/// Owner hook invoked when the last SharedBytes referencing a core
/// drops: sim::BufferPool implements it to take the buffer capacity
/// back into its freelist instead of freeing it.
class SharedBytesRecycler {
  public:
    virtual void recycleShared(SharedBytesCore* core) noexcept = 0;

  protected:
    ~SharedBytesRecycler() = default;
};

/// Refcounted heap buffer underlying SharedBytes slices. The refcount
/// is deliberately non-atomic: one thread drives a simulation run and
/// a slice never leaves the run that made it (parallel sweep workers
/// each own their simulator and pools), so every ref/unref happens on
/// one thread.
class SharedBytesCore {
  public:
    Bytes data;
    std::uint32_t refs = 0;
    SharedBytesRecycler* recycler = nullptr;  ///< null => delete on last ref
    std::size_t liveIndex = 0;                ///< recycler bookkeeping slot
};

/// An immutable refcounted handle on a shared byte buffer — the
/// zero-copy currency of the datapath. A PPP frame is encoded once
/// into a pooled buffer, then the same underlying bytes ride TTY pipe
/// -> modem -> RLC queue -> delivery with each hop holding a reference
/// instead of a copy. A handle always spans its whole buffer.
class SharedBytes {
  public:
    SharedBytes() = default;
    ~SharedBytes() { unref(); }

    SharedBytes(const SharedBytes& other) noexcept : core_(other.core_) {
        if (core_) ++core_->refs;
    }
    SharedBytes(SharedBytes&& other) noexcept : core_(std::exchange(other.core_, nullptr)) {}
    SharedBytes& operator=(const SharedBytes& other) noexcept {
        if (this == &other) return *this;
        if (other.core_) ++other.core_->refs;
        unref();
        core_ = other.core_;
        return *this;
    }
    SharedBytes& operator=(SharedBytes&& other) noexcept {
        if (this == &other) return *this;
        unref();
        core_ = std::exchange(other.core_, nullptr);
        return *this;
    }

    /// Take ownership of a plain buffer (fresh heap core, no pool).
    [[nodiscard]] static SharedBytes wrap(Bytes&& data);
    /// Adopt a prepared zero-ref core (BufferPool::share); the result
    /// holds the first reference.
    [[nodiscard]] static SharedBytes adopt(SharedBytesCore* core) noexcept;

    [[nodiscard]] const std::uint8_t* data() const noexcept {
        return core_ ? core_->data.data() : nullptr;
    }
    [[nodiscard]] std::size_t size() const noexcept { return core_ ? core_->data.size() : 0; }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    [[nodiscard]] ByteView view() const noexcept { return {data(), size()}; }

    /// References on the underlying core (0 for a null handle).
    [[nodiscard]] std::uint32_t refCount() const noexcept { return core_ ? core_->refs : 0; }

    void reset() noexcept {
        unref();
        core_ = nullptr;
    }

  private:
    explicit SharedBytes(SharedBytesCore* core) noexcept : core_(core) { ++core_->refs; }

    void unref() noexcept;

    SharedBytesCore* core_ = nullptr;
};

}  // namespace onelab::util
