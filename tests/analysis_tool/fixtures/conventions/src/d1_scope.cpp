// bc-analyze fixture: `values` is declared an unordered container only under
// tests/, which D1 does not police, so D1's cross-file name tables must not
// learn the name and this loop stays clean.
struct Ledger;

int total(const Ledger& ledger) {
  int s = 0;
  for (int v : ledger.values) s += v;
  return s;
}
