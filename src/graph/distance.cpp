#include "graph/distance.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

namespace lad {
namespace {

inline bool in_mask(const NodeMask& mask, int v) { return mask.empty() || mask[v]; }

// The calling thread's scratch slots, used as a stack: slot `depth` is the
// next free one, so nested queries never share a slot.
struct ScratchStack {
  std::vector<std::unique_ptr<detail::ScratchSlot>> slots;
  std::size_t depth = 0;
};

ScratchStack& scratch_stack() {
  thread_local ScratchStack stack;
  return stack;
}

detail::ScratchSlot* acquire_slot(int n) {
  ScratchStack& st = scratch_stack();
  if (st.depth == st.slots.size()) st.slots.push_back(std::make_unique<detail::ScratchSlot>());
  detail::ScratchSlot* s = st.slots[st.depth++].get();
  const auto size = static_cast<std::size_t>(n);
  if (s->entries.size() < size) s->entries.resize(size);
  // Stamps of earlier epochs read as unset; after a wraparound every stamp
  // could collide with the new epoch, so they are cleared once.
  if (++s->epoch == 0) {
    for (auto& e : s->entries) e.stamp = 0;
    s->epoch = 1;
  }
  s->list.clear();
  return s;
}

void release_slot([[maybe_unused]] const detail::ScratchSlot* s) {
  ScratchStack& st = scratch_stack();
  LAD_ASSERT_MSG(st.depth > 0 && st.slots[st.depth - 1].get() == s,
                 "scratch released out of order");
  --st.depth;
}

}  // namespace

void detail::set_scratch_epoch_for_testing(std::uint32_t epoch) {
  for (auto& s : scratch_stack().slots) s->epoch = epoch;
}

NodeMap::NodeMap(const Graph& g) : slot_(acquire_slot(g.n())) {}

NodeMap::~NodeMap() { release_slot(slot_); }

LocalBfs::LocalBfs(const Graph& g, std::span<const int> sources, int radius,
                   const NodeMask& mask, std::span<const int> stop_at)
    : NodeMap(g), n_(g.n()) {
  std::vector<int>& order = slot_->list;
  for (const int s : sources) {
    LAD_CHECK(s >= 0 && s < g.n());
    LAD_CHECK_MSG(in_mask(mask, s), "BFS source excluded by mask");
    if (insert(s, 0)) order.push_back(s);
  }
  for (const int t : stop_at) LAD_CHECK(t >= 0 && t < g.n());
  std::size_t head = 0;
  std::size_t next_target = 0;
  for (int layer = 0; head < order.size(); ++layer) {
    while (next_target < stop_at.size() && reached(stop_at[next_target])) ++next_target;
    if (!stop_at.empty() && next_target == stop_at.size()) break;
    if (radius >= 0 && layer >= radius) break;
    for (const std::size_t layer_end = order.size(); head < layer_end; ++head) {
      for (const int u : g.neighbors(order[head])) {
        if (in_mask(mask, u) && insert(u, layer + 1)) order.push_back(u);
      }
    }
  }
  if (!order.empty()) depth_ = dist(order.back());
}

std::vector<int> LocalBfs::layered() const {
  const auto seen = nodes();
  std::vector<int> out(seen.begin(), seen.end());
  // Layer boundaries in discovery order (distances are nondecreasing).
  std::vector<std::size_t> start(static_cast<std::size_t>(depth_) + 2, out.size());
  for (std::size_t i = out.size(); i-- > 0;) start[static_cast<std::size_t>(dist(out[i]))] = i;
  // Sorting the layers costs about k·log2(mean layer size) steps, the
  // counting pass one scan of the n indices; timed on grids, tori, cycles
  // and random regular graphs (DESIGN.md §14), a sort step costs about four
  // scanned indices.
  const auto k = static_cast<double>(out.size());
  if (4 * k * std::log2(k / (std::max(depth_, 0) + 1) + 1) >= n_) {
    for (int u = 0; u < n_; ++u) {
      if (reached(u)) out[start[static_cast<std::size_t>(dist(u))]++] = u;
    }
  } else {
    for (int d = 0; d <= depth_; ++d) {
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(start[static_cast<std::size_t>(d)]),
                out.begin() + static_cast<std::ptrdiff_t>(start[static_cast<std::size_t>(d) + 1]));
    }
  }
  return out;
}

std::vector<int> bfs_distances(const Graph& g, int source, const NodeMask& mask, int max_dist) {
  return bfs_distances_multi(g, {source}, mask, max_dist);
}

std::vector<int> bfs_distances_multi(const Graph& g, const std::vector<int>& sources,
                                     const NodeMask& mask, int max_dist) {
  std::vector<int> dist(static_cast<std::size_t>(g.n()), kUnreachable);
  const LocalBfs bfs(g, sources, max_dist, mask);
  for (const int v : bfs.nodes()) dist[static_cast<std::size_t>(v)] = bfs.dist(v);
  return dist;
}

std::vector<int> ball_nodes(const Graph& g, int v, int radius, const NodeMask& mask) {
  return LocalBfs(g, v, radius, mask).layered();
}

int distance(const Graph& g, int u, int v, const NodeMask& mask) {
  return LocalBfs(g, u, -1, mask, std::span<const int>(&v, 1)).dist(v);
}

std::vector<int> shortest_path(const Graph& g, int u, int v, const NodeMask& mask) {
  const LocalBfs bfs(g, u, -1, mask, std::span<const int>(&v, 1));
  if (!bfs.reached(v)) return {};
  std::vector<int> path = {v};
  int cur = v;
  while (cur != u) {
    for (const int w : g.neighbors(cur)) {
      if (bfs.dist(w) == bfs.dist(cur) - 1) {
        cur = w;
        break;
      }
    }
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

int eccentricity(const Graph& g, int v, const NodeMask& mask) {
  return LocalBfs(g, v, -1, mask).depth();
}

bool diameter_at_most(const Graph& g, int v, int bound, const NodeMask& mask) {
  LAD_CHECK(bound >= 0);
  const LocalBfs from_v(g, v, bound + 1, mask);
  if (from_v.depth() > bound) return false;     // diam >= ecc(v) > bound
  if (2 * from_v.depth() <= bound) return true;  // diam <= 2·ecc(v) <= bound
  // Undecided: from_v covered the whole component. Sweep from its farthest
  // node first (the double-sweep lower bound), then from every member.
  const auto comp = from_v.nodes();
  if (LocalBfs(g, comp.back(), bound + 1, mask).depth() > bound) return false;
  for (const int u : comp) {
    if (LocalBfs(g, u, bound + 1, mask).depth() > bound) return false;
  }
  return true;
}

}  // namespace lad
