#include "core/knowledge.h"

#include <algorithm>

namespace viator::wli {

std::vector<std::byte> EncodeKnowledgeQuantum(const KnowledgeQuantum& kq) {
  return SaveFields(kq);
}

Result<KnowledgeQuantum> DecodeKnowledgeQuantum(
    std::span<const std::byte> bytes) {
  KnowledgeQuantum kq;
  if (Status status = LoadFields(bytes, kq); !status.ok()) return status;
  return kq;
}

bool FunctionAlive(const NetFunction& function, const FactStore& store) {
  return std::all_of(
      function.fact_keys.begin(), function.fact_keys.end(),
      [&store](FactKey key) { return store.Find(key) != nullptr; });
}

void FunctionTable::Install(NetFunction function) {
  for (NetFunction& existing : functions_) {
    if (existing.id == function.id) {
      existing = std::move(function);
      return;
    }
  }
  functions_.push_back(std::move(function));
}

bool FunctionTable::Remove(FunctionId id) {
  const auto it = std::find_if(
      functions_.begin(), functions_.end(),
      [id](const NetFunction& f) { return f.id == id; });
  if (it == functions_.end()) return false;
  functions_.erase(it);
  return true;
}

const NetFunction* FunctionTable::Find(FunctionId id) const {
  for (const NetFunction& f : functions_) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

std::size_t FunctionTable::Expire(const FactStore& store) {
  const std::size_t before = functions_.size();
  functions_.erase(
      std::remove_if(functions_.begin(), functions_.end(),
                     [&store](const NetFunction& f) {
                       return !f.fact_keys.empty() &&
                              !FunctionAlive(f, store);
                     }),
      functions_.end());
  return before - functions_.size();
}

std::vector<const NetFunction*> FunctionTable::ForRole(
    node::FirstLevelRole role) const {
  std::vector<const NetFunction*> out;
  for (const NetFunction& f : functions_) {
    if (f.role == role) out.push_back(&f);
  }
  return out;
}

}  // namespace viator::wli
