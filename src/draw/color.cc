#include "draw/color.h"

#include <algorithm>

namespace tioga2::draw {

std::string ColorToHex(const Color& color) {
  static constexpr char kNibbles[] = "0123456789abcdef";
  return std::string{'#',
                     kNibbles[color.r >> 4], kNibbles[color.r & 15],
                     kNibbles[color.g >> 4], kNibbles[color.g & 15],
                     kNibbles[color.b >> 4], kNibbles[color.b & 15]};
}

namespace {
bool HexNibble(char c, int* out) {
  if (c >= '0' && c <= '9') {
    *out = c - '0';
  } else if (c >= 'a' && c <= 'f') {
    *out = c - 'a' + 10;
  } else if (c >= 'A' && c <= 'F') {
    *out = c - 'A' + 10;
  } else {
    return false;
  }
  return true;
}
}  // namespace

bool ColorFromHex(const std::string& hex, Color* out) {
  if (hex.size() != 7 || hex[0] != '#') return false;
  int nibbles[6];
  for (int i = 0; i < 6; ++i) {
    if (!HexNibble(hex[i + 1], &nibbles[i])) return false;
  }
  out->r = static_cast<uint8_t>(nibbles[0] * 16 + nibbles[1]);
  out->g = static_cast<uint8_t>(nibbles[2] * 16 + nibbles[3]);
  out->b = static_cast<uint8_t>(nibbles[4] * 16 + nibbles[5]);
  return true;
}

Color LerpColor(const Color& a, const Color& b, double t) {
  t = std::clamp(t, 0.0, 1.0);
  auto mix = [t](uint8_t x, uint8_t y) {
    return static_cast<uint8_t>(x + (y - x) * t + 0.5);
  };
  return Color{mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b)};
}

}  // namespace tioga2::draw
