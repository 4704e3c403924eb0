// Binary wire codec.
//
// Every message that crosses a simulated network link is serialized with
// Encoder and parsed with Decoder, so the byte counts the benchmarks report
// (e.g. "KB sent per queue operation", paper Fig. 8/10) are measured on real
// encoded frames rather than estimated.
//
// Each message type lists its fields once, in wire order, in one function
//
//   template <class Io> void Fields(Io& io, T& m);
//
// Encoder and Decoder expose the same field methods, so that one function
// both writes and reads the message: EncodeMsg(m) and DecodeMsg<T>(bytes).
// Decode-side validation (enum ranges, non-empty lists) is a Check() in the
// same function; Encoder ignores it.
//
// Format: little-endian fixed-width integers, unsigned LEB128 varints, and
// length-prefixed byte strings. Decoder is bounds-checked and never reads
// past the underlying buffer. It is sticky: the first short read or failed
// Check clears ok(), every later read is a no-op, and DecodeMsg reports
// kDecodeError. Bytes after the last field are not an error.

#ifndef EDC_COMMON_CODEC_H_
#define EDC_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "edc/common/hash.h"
#include "edc/common/result.h"

namespace edc {

class Encoder {
 public:
  Encoder() = default;

  // Integer fields take any integer or enum and write it at the named width.
  template <class T>
  void U8(T v) {
    buf_.push_back(static_cast<uint8_t>(v));
  }
  template <class T>
  void U32(T v) {
    Fixed(static_cast<uint32_t>(v));
  }
  template <class T>
  void U64(T v) {
    Fixed(static_cast<uint64_t>(v));
  }
  void I64(int64_t v) { Fixed(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }

  // Unsigned LEB128.
  void Varint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  // Varint length prefix followed by raw bytes.
  void Str(std::string_view s) { Bytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()}); }
  void Bytes(std::span<const uint8_t> b) {
    Varint(b.size());
    Raw(b);
  }
  // Bytes with no prefix: a frame whose reader finds its own end.
  void Raw(std::span<const uint8_t> b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

  // Varint count, then each element through `each` (default: its Fields).
  // The encoder only reads the elements.
  template <class C, class F>
  void List(const C& c, F&& each) {
    Varint(c.size());
    for (auto& e : const_cast<C&>(c)) {
      each(e);
    }
  }
  template <class C>
  void List(const C& c) {
    List(c, [this](auto& e) { Fields(*this, e); });
  }

  // A sub-message behind a varint length prefix.
  template <class T>
  void Nested(const T& m) {
    Encoder sub;
    Fields(sub, const_cast<T&>(m));
    Bytes(sub.buffer());
  }

  // The length + checksum frame of every durable image (log store records,
  // the data-tree snapshot, the BFT checkpoint's service state): u32 payload
  // length, u64 FNV-1a of the payload, the payload.
  void Frame(std::span<const uint8_t> payload) {
    U32(payload.size());
    U64(Fnv1a64(payload.data(), payload.size()));
    Raw(payload);
  }

  void Check(bool /*cond*/, const char* /*what*/ = nullptr) {}

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

  // Drops the contents but keeps the allocation, so a hot path can reuse one
  // encoder as a per-batch arena without reallocating per message.
  void Clear() { buf_.clear(); }

 private:
  template <typename T>
  void Fixed(T v) {
    uint8_t tmp[sizeof(T)];
    std::memcpy(tmp, &v, sizeof(T));  // host is little-endian (x86/ARM64)
    buf_.insert(buf_.end(), tmp, tmp + sizeof(T));
  }

  std::vector<uint8_t> buf_;
};

class Decoder {
 public:
  explicit Decoder(std::span<const uint8_t> buf) : data_(buf.data()), size_(buf.size()) {}

  template <class T>
  void U8(T& v) {
    uint8_t w = 0;
    if (Fixed(w)) {
      v = static_cast<T>(w);
    }
  }
  template <class T>
  void U32(T& v) {
    uint32_t w = 0;
    if (Fixed(w)) {
      v = static_cast<T>(w);
    }
  }
  template <class T>
  void U64(T& v) {
    uint64_t w = 0;
    if (Fixed(w)) {
      v = static_cast<T>(w);
    }
  }
  void I64(int64_t& v) { U64(v); }
  void Bool(bool& v) {
    uint8_t w = 0;
    if (Fixed(w)) {
      v = w != 0;
    }
  }

  template <class T>
  void Varint(T& out) {
    uint64_t v = 0;
    for (int shift = 0; ok_; shift += 7) {
      if (pos_ >= size_ || shift > 63) {
        Fail("truncated buffer");
        return;
      }
      uint8_t b = data_[pos_++];
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        out = static_cast<T>(v);
        return;
      }
    }
  }

  void Str(std::string& s) {
    std::span<const uint8_t> b;
    Bytes(b);
    if (ok_) {
      s.assign(reinterpret_cast<const char*>(b.data()), b.size());
    }
  }
  void Bytes(std::vector<uint8_t>& out) {
    std::span<const uint8_t> b;
    Bytes(b);
    if (ok_) {
      out.assign(b.begin(), b.end());
    }
  }
  // Borrows the bytes: the view lives as long as the decoded buffer.
  void Bytes(std::span<const uint8_t>& out) {
    uint64_t n = 0;
    Varint(n);
    Take(n, out);
  }

  // Reads what Encoder::List wrote. Every element takes at least one byte,
  // so a count beyond the bytes left fails here, before any allocation.
  template <class C, class F>
  void List(C& c, F&& each) {
    uint64_t n = 0;
    Varint(n);
    Check(n <= remaining(), "list count exceeds buffer");
    for (uint64_t i = 0; i < n && ok_; ++i) {
      typename Element<typename C::value_type>::type e{};
      each(e);
      if (ok_) {
        c.insert(c.end(), std::move(e));
      }
    }
  }
  template <class C>
  void List(C& c) {
    List(c, [this](auto& e) { Fields(*this, e); });
  }

  template <class T>
  void Nested(T& m) {
    std::span<const uint8_t> body;
    Bytes(body);
    if (!ok_) {
      return;
    }
    Decoder sub(body);
    Fields(sub, m);
    if (!sub.ok()) {
      Fail(sub.what_);
    }
  }

  // Reads an Encoder::Frame; `payload` borrows its bytes. A frame cut short
  // fails the decoder. Returns whether the payload matches its checksum, so
  // a caller can tell a torn tail from corruption.
  bool Frame(std::span<const uint8_t>& payload) {
    uint32_t len = 0;
    uint64_t sum = 0;
    U32(len);
    U64(sum);
    Take(len, payload);
    return ok_ && Fnv1a64(payload.data(), payload.size()) == sum;
  }

  void Check(bool cond, const char* what = "invalid field") {
    if (!cond && ok_) {
      Fail(what);
    }
  }

  bool ok() const { return ok_; }
  Status status() const { return ok_ ? Status::Ok() : Status(ErrorCode::kDecodeError, what_); }
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }
  std::span<const uint8_t> rest() const { return {data_ + pos_, size_ - pos_}; }

 private:
  // A map decodes its entries as mutable pairs.
  template <class T>
  struct Element {
    using type = T;
  };
  template <class K, class V>
  struct Element<std::pair<const K, V>> {
    using type = std::pair<K, V>;
  };

  void Fail(const char* what) {
    ok_ = false;
    what_ = what;
  }

  void Take(uint64_t n, std::span<const uint8_t>& out) {
    if (!ok_) {
      return;
    }
    if (n > remaining()) {
      Fail("truncated buffer");
      return;
    }
    out = {data_ + pos_, static_cast<size_t>(n)};
    pos_ += static_cast<size_t>(n);
  }

  template <typename T>
  bool Fixed(T& v) {
    std::span<const uint8_t> b;
    Take(sizeof(T), b);
    if (ok_) {
      std::memcpy(&v, b.data(), sizeof(T));
    }
    return ok_;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
  const char* what_ = "";
};

template <class T>
std::vector<uint8_t> EncodeMsg(const T& m) {
  Encoder enc;
  Fields(enc, const_cast<T&>(m));
  return enc.Release();
}

template <class T>
Result<T> DecodeMsg(std::span<const uint8_t> buf) {
  Decoder dec(buf);
  T m{};
  Fields(dec, m);
  if (!dec.ok()) {
    return dec.status();
  }
  return m;
}

}  // namespace edc

#endif  // EDC_COMMON_CODEC_H_
