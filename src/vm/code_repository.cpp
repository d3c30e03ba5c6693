#include "vm/code_repository.h"

#include <algorithm>

namespace viator::vm {

Result<Digest> CodeRepository::Install(Program program) {
  auto verified = Verify(program);
  if (!verified.ok()) return verified.status();
  const Digest digest = program.digest();
  programs_.emplace(digest, std::move(program));
  return digest;
}

const Program* CodeRepository::Find(Digest digest) const {
  const auto it = programs_.find(digest);
  return it == programs_.end() ? nullptr : &it->second;
}

Status CodeCache::Put(const Program& program) {
  const Digest digest = program.digest();
  const std::size_t bytes = program.WireSize();
  if (bytes > capacity_) {
    return ResourceExhausted("program larger than code cache");
  }
  if (auto it = entries_.find(digest); it != entries_.end()) {
    lru_.erase(it->second.lru_it);
    lru_.push_front(digest);
    it->second.lru_it = lru_.begin();
    return OkStatus();
  }
  while (bytes_used_ + bytes > capacity_ && !lru_.empty()) {
    const Digest victim = lru_.back();
    lru_.pop_back();
    const auto vit = entries_.find(victim);
    bytes_used_ -= vit->second.bytes;
    entries_.erase(vit);
  }
  lru_.push_front(digest);
  entries_.emplace(digest, Entry{program, bytes, lru_.begin()});
  bytes_used_ += bytes;
  return OkStatus();
}

const Program* CodeCache::Get(Digest digest) {
  const auto it = entries_.find(digest);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.erase(it->second.lru_it);
  lru_.push_front(digest);
  it->second.lru_it = lru_.begin();
  return &it->second.program;
}

bool CodeCache::Contains(Digest digest) const {
  return entries_.count(digest) != 0;
}

std::vector<Digest> CodeRepository::Digests() const {
  std::vector<Digest> out;
  out.reserve(programs_.size());
  for (const auto& [digest, program] : programs_) out.push_back(digest);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace viator::vm
