/**
 * @file
 * TinyCIL type system. Types are interned in a per-module TypeTable and
 * referenced by TypeId. Pointer types carry a CCured-style kind; the
 * safety stage rewrites declaration types from Unchecked to an inferred
 * kind, which changes storage size (fat pointers) and which dynamic
 * checks protect dereferences.
 */
#ifndef STOS_IR_TYPE_H
#define STOS_IR_TYPE_H

#include <cstdint>
#include <string>
#include <vector>

namespace stos::ir {

using TypeId = uint32_t;
constexpr TypeId kInvalidType = ~0u;

enum class TypeKind : uint8_t {
    Void,
    Bool,
    Int,     ///< 8/16/32-bit, signed or unsigned
    Ptr,     ///< pointer with a safety kind
    Array,   ///< fixed-size array
    Struct,  ///< reference into the module's struct table
    FnPtr,   ///< `fnptr`: pointer to a void(void) function (task model)
};

/**
 * CCured pointer kinds.
 *
 * - Unchecked: pre-safety, or an unsafe build. One machine word.
 * - Safe: no arithmetic, no bad casts. Null check on deref. One word.
 * - FSeq: forward-only arithmetic. (cur, end): two words.
 * - Seq: arbitrary arithmetic. (cur, base, end): three words.
 * - Wild: involved in bad casts; (cur, tag-base): two words plus
 *   run-time type tags on the referent area.
 */
enum class PtrKind : uint8_t { Unchecked, Safe, FSeq, Seq, Wild };

const char *ptrKindName(PtrKind k);

/** One interned type. Payload fields are valid per TypeKind. */
struct Type {
    TypeKind kind = TypeKind::Void;
    // Int
    uint8_t bits = 0;
    bool isSigned = false;
    // Ptr
    TypeId pointee = kInvalidType;
    PtrKind ptrKind = PtrKind::Unchecked;
    // Array
    TypeId elem = kInvalidType;
    uint32_t count = 0;
    // Struct
    uint32_t structId = 0;

    bool operator==(const Type &) const = default;
};

/**
 * Interning table for types. Equal types always share a TypeId, so
 * type equality is integer comparison.
 */
class TypeTable {
  public:
    TypeTable();

    TypeId voidTy() const { return voidId_; }
    TypeId boolTy() const { return boolId_; }
    TypeId intTy(uint8_t bits, bool isSigned);
    TypeId u8() { return intTy(8, false); }
    TypeId i8() { return intTy(8, true); }
    TypeId u16() { return intTy(16, false); }
    TypeId i16() { return intTy(16, true); }
    TypeId u32() { return intTy(32, false); }
    TypeId i32() { return intTy(32, true); }
    TypeId ptrTy(TypeId pointee, PtrKind kind = PtrKind::Unchecked);
    TypeId arrayTy(TypeId elem, uint32_t count);
    TypeId structTy(uint32_t structId);
    TypeId fnPtrTy() const { return fnPtrId_; }

    const Type &get(TypeId id) const { return types_.at(id); }

    bool isInt(TypeId id) const { return get(id).kind == TypeKind::Int; }
    bool isBool(TypeId id) const { return get(id).kind == TypeKind::Bool; }
    bool isPtr(TypeId id) const { return get(id).kind == TypeKind::Ptr; }
    bool isArray(TypeId id) const { return get(id).kind == TypeKind::Array; }
    bool isStruct(TypeId id) const { return get(id).kind == TypeKind::Struct; }
    bool isFnPtr(TypeId id) const { return get(id).kind == TypeKind::FnPtr; }
    bool isVoid(TypeId id) const { return get(id).kind == TypeKind::Void; }

    /** Int or bool: usable in arithmetic/conditions. */
    bool isScalarInt(TypeId id) const { return isInt(id) || isBool(id); }

    /** Re-kind a pointer type; id must be a Ptr. */
    TypeId withPtrKind(TypeId id, PtrKind kind);

    size_t size() const { return types_.size(); }

    /**
     * The table's artifact-store layout (ir/serialize.cpp). Interned
     * ids are positional, so restoring the types in serialized order
     * reproduces every TypeId exactly.
     */
    template <typename A> friend void transfer(A &a, TypeTable &x);

  private:
    TypeId intern(const Type &t);

    std::vector<Type> types_;
    TypeId voidId_, boolId_, fnPtrId_;
};

} // namespace stos::ir

#endif
