#include "render/framebuffer.h"

#include <algorithm>
#include <cstring>
#include <fstream>

namespace tioga2::render {

Framebuffer::Framebuffer(int width, int height, draw::Color background)
    : width_(width < 1 ? 1 : width), height_(height < 1 ? 1 : height) {
  pixels_.assign(static_cast<size_t>(width_) * static_cast<size_t>(height_), background);
}

void Framebuffer::Clear(const draw::Color& color) {
  // Fill one row, then copy it: a row of 3-byte pixels copies as plain
  // bytes, where a fill over the whole buffer goes pixel by pixel.
  const size_t row = static_cast<size_t>(width_);
  std::fill(pixels_.begin(), pixels_.begin() + static_cast<ptrdiff_t>(row), color);
  for (size_t y = 1; y < static_cast<size_t>(height_); ++y) {
    std::memcpy(&pixels_[y * row], pixels_.data(), row * sizeof(draw::Color));
  }
}

size_t Framebuffer::CountPixels(const draw::Color& color) const {
  size_t count = 0;
  for (const draw::Color& pixel : pixels_) {
    if (pixel == color) ++count;
  }
  return count;
}

size_t Framebuffer::CountPixelsNotEqual(const draw::Color& color) const {
  return pixels_.size() - CountPixels(color);
}

std::string Framebuffer::ToPpm() const {
  std::string out = "P6\n" + std::to_string(width_) + " " + std::to_string(height_) +
                    "\n255\n";
  out.reserve(out.size() + pixels_.size() * 3);
  for (const draw::Color& pixel : pixels_) {
    out.push_back(static_cast<char>(pixel.r));
    out.push_back(static_cast<char>(pixel.g));
    out.push_back(static_cast<char>(pixel.b));
  }
  return out;
}

Status Framebuffer::WritePpm(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  std::string ppm = ToPpm();
  out.write(ppm.data(), static_cast<std::streamsize>(ppm.size()));
  if (!out.good()) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace tioga2::render
