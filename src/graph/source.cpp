#include "graph/source.hpp"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace lad {

namespace {

struct FamilySpec {
  const char* name;
  const char* shape;  // for error messages
  std::size_t max_params;
  long long defaults[4];  // of every parameter, in order
};

// Parameter vocabularies mirror `lad gen` (defaults included), plus the
// families the fault campaigns use (torus) and a few zoo members.
constexpr FamilySpec kFamilies[] = {
    {"cycle", "cycle:N", 1, {100}},
    {"path", "path:N", 1, {100}},
    {"grid", "grid:WxH", 2, {10, 10}},
    {"torus", "torus:WxH", 2, {10, 10}},
    {"ladder", "ladder:M", 1, {100}},
    {"regular", "regular:NxD", 2, {100, 4}},
    {"banded", "banded:NxBANDxAVGxMAX", 4, {500, 5, 3, 6}},
    {"twocycles", "twocycles:N1xN2", 2, {400, 24}},
    {"complete", "complete:N", 1, {10}},
    {"star", "star:N", 1, {10}},
    {"hypercube", "hypercube:D", 1, {4}},
    {"tree", "tree:NxMAXDEG", 2, {100, 3}},
};

const FamilySpec* find_family(const std::string& name) {
  for (const auto& f : kFamilies) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

bool parse_ll(const std::string& s, long long* out) {
  if (s.empty()) return false;
  long long v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (9'223'372'036'854'775'807LL - (c - '0')) / 10) return false;
    v = v * 10 + (c - '0');
  }
  *out = v;
  return true;
}

void set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

std::string family_list() {
  std::string out;
  for (const auto& f : kFamilies) {
    if (!out.empty()) out += ", ";
    out += f.name;
  }
  return out;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Every parameter of a family spec, defaults filled in; a grid's or
// torus's H defaults to its W.
std::vector<long long> resolved_params(const GraphSource& src, const FamilySpec& fam) {
  std::vector<long long> p(fam.defaults, fam.defaults + fam.max_params);
  std::copy(src.params.begin(), src.params.end(), p.begin());
  if (src.params.size() == 1 && (src.family == "grid" || src.family == "torus")) {
    p[1] = p[0];
  }
  return p;
}

// The generator's preconditions on the resolved parameters, and the 32-bit
// index limits on the instance's n and 2m (DESIGN.md §12). Returns "" when
// the spec is admissible, else the requirement it fails.
std::string family_requirement(const std::string& f, const std::vector<long long>& p) {
  constexpr long long kMaxIndex = 0x7fffffff;
  for (const long long v : p) {
    if (v > kMaxIndex) return "every parameter <= " + std::to_string(kMaxIndex);
  }
  // n and an upper bound on m; each product stays below 2^63.
  long long n = p[0], m = 0;
  if (f == "cycle") {
    if (n < 3) return "N >= 3";
    m = n;
  } else if (f == "path" || f == "star") {
    if (n < 1) return "N >= 1";
    m = n - 1;
  } else if (f == "grid") {
    if (p[0] < 1 || p[1] < 1) return "W >= 1 and H >= 1";
    n = p[0] * p[1];
    m = (p[0] - 1) * p[1] + p[0] * (p[1] - 1);
  } else if (f == "torus") {
    if (p[0] < 3 || p[1] < 3) return "W >= 3 and H >= 3";
    n = p[0] * p[1];
    m = 2 * n;
  } else if (f == "ladder") {
    if (p[0] < 3) return "M >= 3";
    n = 2 * p[0];
    m = 3 * p[0];
  } else if (f == "regular") {
    if (n < 2 || p[1] < 1 || p[1] >= n || n * p[1] % 2 != 0) {
      return "N >= 2, 1 <= D < N and N*D even";
    }
    m = n * p[1] / 2;
  } else if (f == "banded") {
    // Random edges join nodes 2..BAND apart on the ring; BAND = N would
    // join a node to itself.
    if (n < 3 || p[1] < 2 || p[1] >= n || p[3] < 1) return "N >= 3, 2 <= BAND < N and MAX >= 1";
    m = std::max(n, std::min(p[2] * n / 2, n * p[3] / 2));
  } else if (f == "twocycles") {
    if (p[0] < 3 || p[1] < 3) return "N1 >= 3 and N2 >= 3";
    n = m = p[0] + p[1];
  } else if (f == "complete") {
    if (n < 1) return "N >= 1";
    m = n * (n - 1) / 2;
  } else if (f == "hypercube") {
    if (p[0] > 20) return "D <= 20";
    n = 1LL << p[0];
    m = p[0] * n / 2;
  } else if (f == "tree") {
    if (n < 1 || p[1] < 2) return "N >= 1 and MAXDEG >= 2";
    m = n - 1;
  }
  if (n > kMaxIndex) {
    return "n <= " + std::to_string(kMaxIndex) + " (32-bit node index), got n = " +
           std::to_string(n);
  }
  if (2 * m > kMaxIndex) {
    return "2m <= " + std::to_string(kMaxIndex) + " (32-bit arc index), got m = " +
           std::to_string(m);
  }
  return {};
}

}  // namespace

const std::vector<std::string>& graph_source_families() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& f : kFamilies) out.emplace_back(f.name);
    return out;
  }();
  return names;
}

std::optional<GraphSource> parse_graph_source(const std::string& spec, std::string* error) {
  GraphSource src;
  src.spec = spec;
  if (spec.empty()) {
    set_error(error, "empty graph source");
    return std::nullopt;
  }
  if (ends_with(spec, ".ladg")) {
    src.kind = GraphSource::Kind::kLadgFile;
    src.path = spec;
    return src;
  }
  if (ends_with(spec, ".txt") || spec.find('/') != std::string::npos) {
    src.kind = GraphSource::Kind::kEdgeListFile;
    src.path = spec;
    return src;
  }
  src.kind = GraphSource::Kind::kFamily;
  std::string body = spec;
  // Optional "@seed" suffix.
  if (auto at = body.rfind('@'); at != std::string::npos) {
    long long s = 0;
    if (!parse_ll(body.substr(at + 1), &s)) {
      set_error(error, "unknown graph source '" + spec + "': bad seed suffix");
      return std::nullopt;
    }
    src.seed = static_cast<std::uint64_t>(s);
    body.resize(at);
  }
  std::string params;
  if (auto colon = body.find(':'); colon != std::string::npos) {
    params = body.substr(colon + 1);
    body.resize(colon);
  }
  src.family = body;
  const FamilySpec* fam = find_family(src.family);
  if (fam == nullptr) {
    set_error(error, "unknown graph source '" + spec + "' (expected family:params [" +
                         family_list() + "], a .ladg file, or a .txt edge list)");
    return std::nullopt;
  }
  if (!params.empty()) {
    std::size_t pos = 0;
    while (pos <= params.size()) {
      auto x = params.find('x', pos);
      if (x == std::string::npos) x = params.size();
      long long v = 0;
      if (!parse_ll(params.substr(pos, x - pos), &v)) {
        set_error(error, "unknown graph source '" + spec + "': bad parameter in '" +
                             params + "' (expected " + fam->shape + ")");
        return std::nullopt;
      }
      src.params.push_back(v);
      pos = x + 1;
      if (x == params.size()) break;
    }
  }
  if (src.params.size() > fam->max_params) {
    set_error(error, "unknown graph source '" + spec + "': expected " + fam->shape);
    return std::nullopt;
  }
  const std::string need = family_requirement(src.family, resolved_params(src, *fam));
  if (!need.empty()) {
    set_error(error, "graph source '" + spec + "': " + fam->shape + " needs " + need);
    return std::nullopt;
  }
  return src;
}

LoadedGraph load_graph_source(const GraphSource& src, std::uint64_t seed) {
  LoadedGraph out;
  switch (src.kind) {
    case GraphSource::Kind::kLadgFile:
      out.graph = read_ladg(src.path);
      out.spec = src.path;
      break;
    case GraphSource::Kind::kEdgeListFile: {
      std::ifstream in(src.path);
      if (!in.good()) throw GraphIoError("cannot open graph file '" + src.path + "'");
      try {
        out.graph = read_edge_list(in);
      } catch (const ContractViolation& e) {
        throw GraphIoError("invalid edge list '" + src.path + "': " + e.what());
      }
      out.spec = src.path;
      break;
    }
    case GraphSource::Kind::kFamily: {
      const std::uint64_t s = src.seed.value_or(seed);
      const auto& f = src.family;
      const FamilySpec* fam = find_family(f);
      LAD_CHECK_MSG(fam != nullptr, "unknown graph source family '" << f << "'");
      const auto p = resolved_params(src, *fam);
      const std::string need = family_requirement(f, p);
      LAD_CHECK_MSG(need.empty(), "graph source '" << src.spec << "' needs " << need);
      const auto at = [&](std::size_t i) { return static_cast<int>(p[i]); };
      Graph g;
      if (f == "cycle") {
        g = make_cycle(at(0), IdMode::kRandomDense, s);
      } else if (f == "path") {
        g = make_path(at(0), IdMode::kRandomDense, s);
      } else if (f == "grid") {
        g = make_grid(at(0), at(1), IdMode::kRandomDense, s);
      } else if (f == "torus") {
        g = make_torus(at(0), at(1), IdMode::kRandomDense, s);
      } else if (f == "ladder") {
        g = make_circular_ladder(at(0), IdMode::kRandomDense, s);
      } else if (f == "regular") {
        g = make_random_regular(at(0), at(1), s);
      } else if (f == "banded") {
        g = make_banded_random(at(0), at(1), static_cast<double>(p[2]), at(3), s);
      } else if (f == "twocycles") {
        g = disjoint_union({make_cycle(at(0)), make_cycle(at(1))}, IdMode::kRandomDense, s);
      } else if (f == "complete") {
        g = make_complete(at(0), IdMode::kRandomDense, s);
      } else if (f == "star") {
        g = make_star(at(0), IdMode::kRandomDense, s);
      } else if (f == "hypercube") {
        g = make_hypercube(at(0), IdMode::kRandomDense, s);
      } else if (f == "tree") {
        g = make_bounded_degree_tree(at(0), at(1), s);
      } else {
        LAD_UNREACHABLE("family accepted by parse_graph_source but not loadable");
      }
      out.graph = std::move(g);
      // Canonical spec: resolved params + seed, so provenance pins the
      // exact instance ("cycle" run at seed 7 reads back as cycle:100@7).
      std::ostringstream canon;
      canon << f;
      for (std::size_t i = 0; i < src.params.size(); ++i) {
        canon << (i == 0 ? ':' : 'x') << src.params[i];
      }
      canon << '@' << s;
      out.spec = canon.str();
      break;
    }
  }
  out.digest = graph_digest_hex(out.graph);
  return out;
}

std::optional<LoadedGraph> load_graph_source(const std::string& spec, std::string* error,
                                             std::uint64_t seed) {
  auto src = parse_graph_source(spec, error);
  if (!src) return std::nullopt;
  return load_graph_source(*src, seed);
}

}  // namespace lad
