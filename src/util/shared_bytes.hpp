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

/// An immutable refcounted [offset, offset+size) slice of a shared
/// byte buffer — the zero-copy currency of the datapath. A PPP frame
/// is encoded once into a pooled buffer, then the same underlying
/// bytes ride TTY pipe -> modem -> RLC queue -> delivery with each hop
/// holding a reference instead of a copy.
class SharedBytes {
  public:
    SharedBytes() = default;
    ~SharedBytes() { unref(); }

    SharedBytes(const SharedBytes& other) noexcept
        : core_(other.core_), data_(other.data_), size_(other.size_) {
        if (core_) ++core_->refs;
    }
    SharedBytes(SharedBytes&& other) noexcept
        : core_(std::exchange(other.core_, nullptr)),
          data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)) {}
    SharedBytes& operator=(const SharedBytes& other) noexcept {
        if (this == &other) return *this;
        if (other.core_) ++other.core_->refs;
        unref();
        core_ = other.core_;
        data_ = other.data_;
        size_ = other.size_;
        return *this;
    }
    SharedBytes& operator=(SharedBytes&& other) noexcept {
        if (this == &other) return *this;
        unref();
        core_ = std::exchange(other.core_, nullptr);
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
        return *this;
    }

    /// Take ownership of a plain buffer (fresh heap core, no pool).
    [[nodiscard]] static SharedBytes wrap(Bytes&& data);
    /// Copy `data` into a fresh heap core.
    [[nodiscard]] static SharedBytes copy(ByteView data);
    /// Adopt a prepared zero-ref core (BufferPool::share); the result
    /// holds the first reference and spans the whole buffer.
    [[nodiscard]] static SharedBytes adopt(SharedBytesCore* core) noexcept;

    [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] ByteView view() const noexcept { return {data_, size_}; }

    /// A sub-slice sharing the same core (clamped to this slice).
    [[nodiscard]] SharedBytes slice(std::size_t offset, std::size_t length) const noexcept;

    /// References on the underlying core (0 for a null slice).
    [[nodiscard]] std::uint32_t refCount() const noexcept { return core_ ? core_->refs : 0; }

    void reset() noexcept {
        unref();
        core_ = nullptr;
        data_ = nullptr;
        size_ = 0;
    }

  private:
    SharedBytes(SharedBytesCore* core, const std::uint8_t* data, std::size_t size) noexcept
        : core_(core), data_(data), size_(size) {
        if (core_) ++core_->refs;
    }

    void unref() noexcept;

    SharedBytesCore* core_ = nullptr;
    const std::uint8_t* data_ = nullptr;
    std::size_t size_ = 0;
};

}  // namespace onelab::util
