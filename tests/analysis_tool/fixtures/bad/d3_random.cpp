// bc-analyze fixture: randomness outside the seeded bc::Rng (rule D3).
#include <cstdlib>
#include <random>

int roll() {
  std::random_device rd;        // line 6
  std::mt19937 gen(rd());       // line 7
  return static_cast<int>(gen() % 6u);
}

int roll_legacy() {
  return rand() % 6;  // line 12
}

int roll_std() {
  std::srand(7u);          // line 16
  return std::rand() % 6;  // line 17
}
