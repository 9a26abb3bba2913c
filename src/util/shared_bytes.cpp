#include "util/shared_bytes.hpp"

namespace onelab::util {

SharedBytes SharedBytes::wrap(Bytes&& data) {
    auto* core = new SharedBytesCore;
    core->data = std::move(data);
    return adopt(core);
}

SharedBytes SharedBytes::adopt(SharedBytesCore* core) noexcept { return SharedBytes{core}; }

void SharedBytes::unref() noexcept {
    if (!core_ || --core_->refs != 0) return;
    if (core_->recycler)
        core_->recycler->recycleShared(core_);
    else
        delete core_;
}

}  // namespace onelab::util
