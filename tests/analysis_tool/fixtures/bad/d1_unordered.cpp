// bc-analyze fixture: every D1 shape the token frontend must catch.
// Expected findings are hard-coded in tests/analysis_tool/test_bc_analyze.py;
// keep line numbers stable when editing.
#include <unordered_map>
#include <unordered_set>
#include <vector>

std::unordered_map<int, int> scores;
std::unordered_set<int> members;

std::vector<int> export_order() {
  std::vector<int> out;
  for (const auto& [peer, score] : scores) {  // line 13: range-for over map
    out.push_back(peer);
  }
  for (int peer : members) {  // line 16: range-for over set
    out.push_back(peer);
  }
  for (auto it = scores.begin(); it != scores.end(); ++it) {  // line 19
    out.push_back(it->first);
  }
  return out;
}

class Graph {
 public:
  std::vector<int> nodes() const {
    std::vector<int> out;
    for (const auto& [id, cap] : adj_) out.push_back(id);  // line 29
    return out;
  }

 private:
  std::unordered_map<int, int> adj_;  // declared below its use
};
