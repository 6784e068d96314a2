/**
 * @file
 * Small-buffer-optimized move-only callable with a call signature.
 *
 * The event kernel stores millions of short-lived callbacks, and the
 * RPC layer one completion per call; wrapping each in `std::function`
 * costs a heap allocation for anything larger than the
 * implementation's tiny inline buffer (typically 16 bytes — smaller
 * than a single captured `std::shared_ptr` plus `this`).
 * `InlineFunction` raises the inline capacity so the dominant
 * closures — kernel events (controller cycle ticks, the transport's
 * `[this, slot]` call events) and RPC completions, including the
 * retry wrapper that carries a caller's completion inside its own —
 * are stored directly inside the event slab or call record, falling
 * back to the heap only for outsized captures.
 */
#ifndef DYNAMO_COMMON_INLINE_FUNCTION_H_
#define DYNAMO_COMMON_INLINE_FUNCTION_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace dynamo {

template <std::size_t Capacity, typename Signature = void()>
class InlineFunction;

/**
 * Move-only `R(Args...)` callable with `Capacity` bytes of inline
 * storage.
 *
 * Callables that fit in `Capacity` bytes (and are nothrow
 * move-constructible) are stored inline; larger ones are heap-backed.
 * Invoking an empty InlineFunction is undefined; test with
 * `operator bool` where emptiness is a legal state.
 */
template <std::size_t Capacity, typename R, typename... Args>
class InlineFunction<Capacity, R(Args...)>
{
  public:
    InlineFunction() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, InlineFunction>>>
    InlineFunction(F&& fn)  // NOLINT(google-explicit-constructor)
    {
        using Decayed = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Decayed&, Args...>,
                      "InlineFunction: callable does not match the signature");
        if constexpr (sizeof(Decayed) <= Capacity &&
                      alignof(Decayed) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Decayed>) {
            ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(fn));
            vtable_ = &kInlineVtable<Decayed>;
        } else {
            ::new (static_cast<void*>(storage_))
                Decayed*(new Decayed(std::forward<F>(fn)));
            vtable_ = &kHeapVtable<Decayed>;
        }
    }

    InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

    InlineFunction& operator=(InlineFunction&& other) noexcept
    {
        if (this != &other) {
            Reset();
            MoveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    ~InlineFunction() { Reset(); }

    explicit operator bool() const { return vtable_ != nullptr; }

    R operator()(Args... args)
    {
        return vtable_->invoke(storage_, std::forward<Args>(args)...);
    }

    /** True if the wrapped callable lives in the inline buffer. */
    bool is_inline() const { return vtable_ != nullptr && vtable_->inline_storage; }

  private:
    struct VTable
    {
        R (*invoke)(void* storage, Args&&... args);
        void (*move)(void* dst, void* src);  // move-construct dst from src
        void (*destroy)(void* storage);
        bool inline_storage;
    };

    template <typename F>
    static constexpr VTable kInlineVtable = {
        [](void* storage, Args&&... args) -> R {
            return (*std::launder(reinterpret_cast<F*>(storage)))(
                std::forward<Args>(args)...);
        },
        [](void* dst, void* src) {
            ::new (dst) F(std::move(*std::launder(reinterpret_cast<F*>(src))));
        },
        [](void* storage) { std::launder(reinterpret_cast<F*>(storage))->~F(); },
        /*inline_storage=*/true,
    };

    template <typename F>
    static constexpr VTable kHeapVtable = {
        [](void* storage, Args&&... args) -> R {
            return (**std::launder(reinterpret_cast<F**>(storage)))(
                std::forward<Args>(args)...);
        },
        [](void* dst, void* src) {
            ::new (dst) F*(*std::launder(reinterpret_cast<F**>(src)));
            *std::launder(reinterpret_cast<F**>(src)) = nullptr;
        },
        [](void* storage) {
            delete *std::launder(reinterpret_cast<F**>(storage));
        },
        /*inline_storage=*/false,
    };

    void MoveFrom(InlineFunction& other) noexcept
    {
        vtable_ = other.vtable_;
        if (vtable_ != nullptr) {
            vtable_->move(storage_, other.storage_);
            other.Reset();
        }
    }

    void Reset() noexcept
    {
        if (vtable_ != nullptr) {
            vtable_->destroy(storage_);
            vtable_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[Capacity];
    const VTable* vtable_ = nullptr;
};

}  // namespace dynamo

#endif  // DYNAMO_COMMON_INLINE_FUNCTION_H_
