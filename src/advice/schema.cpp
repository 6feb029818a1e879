#include "advice/schema.hpp"

#include <algorithm>

namespace lad {

BitString pack_entries(const std::vector<SchemaEntry>& entries) {
  BitString out;
  out.append_gamma(entries.size() + 1);
  for (const auto& e : entries) {
    LAD_CHECK(e.schema_id >= 0);
    LAD_CHECK(e.anchor_id >= 1);
    out.append_gamma(static_cast<std::uint64_t>(e.schema_id) + 1);
    out.append_gamma(static_cast<std::uint64_t>(e.anchor_id));
    out.append_gamma(static_cast<std::uint64_t>(e.payload.size()) + 1);
    out.append(e.payload);
  }
  return out;
}

std::vector<SchemaEntry> unpack_entries(const BitString& packed) {
  int pos = 0;
  const auto count = packed.read_gamma(pos) - 1;
  std::vector<SchemaEntry> entries(count);
  for (auto& e : entries) {
    e.schema_id = static_cast<int>(packed.read_gamma(pos) - 1);
    e.anchor_id = static_cast<NodeId>(packed.read_gamma(pos));
    const int len = static_cast<int>(packed.read_gamma(pos) - 1);
    for (int i = 0; i < len; ++i) e.payload.append(packed.bit(pos + i));
    pos += len;
  }
  LAD_CHECK_MSG(pos == packed.size(), "trailing bits after packed entries");
  return entries;
}

VarAdvice compose_schemas(const Graph& g, const std::vector<VarAdvice>& schemas, int sep,
                          const NodeMask& mask) {
  // Gather all storage nodes with their entries (schema ids untouched).
  std::map<int, std::vector<SchemaEntry>> pending;
  for (const auto& schema : schemas) {
    for (const auto& [node, entries] : schema) {
      for (const SchemaEntry& e : entries) pending[node].push_back(e);
    }
  }

  // Keep storage nodes greedily in ID order; relocate violators to the
  // nearest kept node.
  std::vector<int> order;
  for (const auto& [node, _] : pending) order.push_back(node);
  std::sort(order.begin(), order.end(), [&](int a, int b) { return g.id(a) < g.id(b); });

  VarAdvice out;
  NodeMap kept_rank(g);  // kept storage nodes, numbered in keep order
  int num_kept = 0;
  for (const int node : order) {
    // The nearest kept node within sep - 1, the earliest kept on a tie.
    int nearest = -1;
    const LocalBfs near(g, node, sep - 1, mask);
    for (const int k : near.nodes()) {
      if (!kept_rank.contains(k)) continue;
      if (nearest != -1 && near.dist(k) > near.dist(nearest)) break;
      if (nearest == -1 || kept_rank.get(k) < kept_rank.get(nearest)) nearest = k;
    }
    if (nearest == -1) {
      kept_rank.set(node, num_kept++);
      auto& slot = out[node];
      for (auto& e : pending[node]) slot.push_back(std::move(e));
    } else {
      auto& slot = out[nearest];
      for (auto& e : pending[node]) slot.push_back(std::move(e));
    }
  }
  return out;
}

std::map<int, BitString> pack_var_advice(const VarAdvice& advice) {
  std::map<int, BitString> out;
  for (const auto& [node, entries] : advice) out[node] = pack_entries(entries);
  return out;
}

VarAdvice unpack_var_advice(const std::map<int, BitString>& packed) {
  VarAdvice out;
  for (const auto& [node, bits] : packed) out[node] = unpack_entries(bits);
  return out;
}

}  // namespace lad
