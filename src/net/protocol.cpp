#include "net/protocol.h"

#include <cstring>

namespace vsq::net {
namespace {

// Explicit little-endian serialization: the wire format is fixed LE
// regardless of host byte order.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void put_f32(std::vector<std::uint8_t>& out, float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  put_u32(out, bits);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

// Sequential body reader with bounds checking; every get_* fails softly
// so the decoders can report a diagnostic instead of reading past the
// buffer.
struct Cursor {
  std::span<const std::uint8_t> body;
  std::size_t pos = 0;

  bool get_u8(std::uint8_t* v) {
    if (pos + 1 > body.size()) return false;
    *v = body[pos++];
    return true;
  }
  bool get_u16(std::uint16_t* v) {
    if (pos + 2 > body.size()) return false;
    *v = static_cast<std::uint16_t>(static_cast<std::uint16_t>(body[pos]) |
                                    (static_cast<std::uint16_t>(body[pos + 1]) << 8));
    pos += 2;
    return true;
  }
  bool get_u32(std::uint32_t* v) {
    if (pos + 4 > body.size()) return false;
    *v = net::get_u32(body.data() + pos);
    pos += 4;
    return true;
  }
  bool get_bytes(std::size_t n, const std::uint8_t** p) {
    if (pos + n > body.size()) return false;
    *p = body.data() + pos;
    pos += n;
    return true;
  }
  bool get_floats(std::size_t n, std::vector<float>* out) {
    if (pos + n * 4 > body.size()) return false;
    out->resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t bits = net::get_u32(body.data() + pos + i * 4);
      std::memcpy(&(*out)[i], &bits, sizeof(float));
    }
    pos += n * 4;
    return true;
  }
  bool done() const { return pos == body.size(); }
};

bool fail(std::string* err, const char* why) {
  if (err) *err = why;
  return false;
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kShed: return "shed";
    case Status::kUnknownModel: return "unknown_model";
    case Status::kBadRequest: return "bad_request";
    case Status::kError: return "error";
    case Status::kUnavailable: return "unavailable";
    case Status::kBusy: return "busy";
  }
  return "invalid";
}

void encode_header(std::uint32_t body_len, std::uint8_t out[kHeaderBytes]) {
  out[0] = static_cast<std::uint8_t>(kMagic & 0xff);
  out[1] = static_cast<std::uint8_t>((kMagic >> 8) & 0xff);
  out[2] = static_cast<std::uint8_t>((kMagic >> 16) & 0xff);
  out[3] = static_cast<std::uint8_t>((kMagic >> 24) & 0xff);
  out[4] = static_cast<std::uint8_t>(body_len & 0xff);
  out[5] = static_cast<std::uint8_t>((body_len >> 8) & 0xff);
  out[6] = static_cast<std::uint8_t>((body_len >> 16) & 0xff);
  out[7] = static_cast<std::uint8_t>((body_len >> 24) & 0xff);
}

bool parse_header(const std::uint8_t in[kHeaderBytes], std::uint32_t* body_len) {
  if (get_u32(in) != kMagic) return false;
  *body_len = get_u32(in + 4);
  return true;
}

// Both encoders size the frame up front (reserve header + body, then
// resize to the header) so the appends below never reallocate.
std::vector<std::uint8_t> encode_request(const RequestFrame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + 1 + 4 + 1 + f.model.size() + 4 + 4 * f.row.size());
  out.resize(kHeaderBytes);
  out.push_back(static_cast<std::uint8_t>(f.priority));
  put_u32(out, f.deadline_ms);
  out.push_back(static_cast<std::uint8_t>(f.model.size()));
  out.insert(out.end(), f.model.begin(), f.model.end());
  put_u32(out, static_cast<std::uint32_t>(f.row.size()));
  for (float v : f.row) put_f32(out, v);
  encode_header(static_cast<std::uint32_t>(out.size() - kHeaderBytes), out.data());
  return out;
}

std::vector<std::uint8_t> encode_response(const ResponseFrame& f) {
  const bool ok = f.status == Status::kOk;
  const std::size_t len = f.message.size() > 0xffff ? 0xffff : f.message.size();
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + 1 + (ok ? 4 + 4 * f.row.size() : 2 + len));
  out.resize(kHeaderBytes);
  out.push_back(static_cast<std::uint8_t>(f.status));
  if (ok) {
    put_u32(out, static_cast<std::uint32_t>(f.row.size()));
    for (float v : f.row) put_f32(out, v);
  } else {
    put_u16(out, static_cast<std::uint16_t>(len));
    out.insert(out.end(), f.message.begin(), f.message.begin() + static_cast<std::ptrdiff_t>(len));
  }
  encode_header(static_cast<std::uint32_t>(out.size() - kHeaderBytes), out.data());
  return out;
}

bool decode_request(std::span<const std::uint8_t> body, RequestFrame* out, std::string* err) {
  Cursor c{body};
  std::uint8_t prio = 0, name_len = 0;
  if (!c.get_u8(&prio)) return fail(err, "request truncated: missing priority");
  if (prio > static_cast<std::uint8_t>(Priority::kLow)) {
    return fail(err, "unknown priority value");
  }
  std::uint32_t deadline_ms = 0;
  if (!c.get_u32(&deadline_ms)) return fail(err, "request truncated: missing deadline");
  if (!c.get_u8(&name_len)) return fail(err, "request truncated: missing name length");
  if (name_len == 0) return fail(err, "empty model name");
  const std::uint8_t* name = nullptr;
  if (!c.get_bytes(name_len, &name)) return fail(err, "request truncated: missing model name");
  std::uint32_t n = 0;
  if (!c.get_u32(&n)) return fail(err, "request truncated: missing row length");
  out->priority = static_cast<Priority>(prio);
  out->deadline_ms = deadline_ms;
  out->model.assign(reinterpret_cast<const char*>(name), name_len);
  if (!c.get_floats(n, &out->row)) return fail(err, "request truncated: missing row data");
  if (!c.done()) return fail(err, "trailing bytes after request body");
  return true;
}

bool decode_response(std::span<const std::uint8_t> body, ResponseFrame* out, std::string* err) {
  Cursor c{body};
  std::uint8_t status = 0;
  if (!c.get_u8(&status)) return fail(err, "response truncated: missing status");
  if (status > static_cast<std::uint8_t>(Status::kBusy)) {
    return fail(err, "unknown status value");
  }
  out->status = static_cast<Status>(status);
  out->row.clear();
  out->message.clear();
  if (out->status == Status::kOk) {
    std::uint32_t n = 0;
    if (!c.get_u32(&n)) return fail(err, "response truncated: missing row length");
    if (!c.get_floats(n, &out->row)) return fail(err, "response truncated: missing row data");
  } else {
    std::uint16_t len = 0;
    if (!c.get_u16(&len)) return fail(err, "response truncated: missing message length");
    const std::uint8_t* msg = nullptr;
    if (!c.get_bytes(len, &msg)) return fail(err, "response truncated: missing message");
    out->message.assign(reinterpret_cast<const char*>(msg), len);
  }
  if (!c.done()) return fail(err, "trailing bytes after response body");
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[c >> 4];
          out += hex[c & 0xf];
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace vsq::net
