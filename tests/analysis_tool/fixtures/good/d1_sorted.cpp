// bc-analyze fixture: the sanctioned way to iterate in a stable order is
// an ordered container; D1 only flags hash containers.
#include <map>
#include <set>
#include <vector>

std::map<int, int> scores;
std::set<int> banned;

std::vector<int> export_order() {
  std::vector<int> out;
  for (const auto& [peer, score] : scores) {
    out.push_back(peer);
  }
  for (int peer : banned) {
    out.push_back(peer);
  }
  return out;
}
