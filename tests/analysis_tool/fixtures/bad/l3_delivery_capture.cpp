// L3 fixture: the overlay stores the delivery callback handed to
// Overlay::schedule_delivery until the message arrives, so it must not
// capture by reference either. Expected findings are hard-coded in
// tests/analysis_tool/test_bc_analyze.py; keep line numbers stable.
#include <vector>

namespace net {

class Overlay {
 public:
  template <class Deliver>
  bool schedule_delivery(int from, int to, Deliver deliver);
};

void gossip(Overlay& overlay, std::vector<int>& inbox) {
  std::vector<int> records = {1, 2, 3};
  overlay.schedule_delivery(1, 2, [&records, &inbox] {  // line 17: L3
    inbox.insert(inbox.end(), records.begin(), records.end());
  });
}

}  // namespace net
