// Concurrent hash trie (CTrie) with lock-free, constant-time snapshots.
//
// This is the index data structure of the Indexed DataFrame (§III-C): each
// indexed partition owns one CTrie mapping key -> packed 64-bit pointer to
// the most recently appended row for that key. Its snapshot capability is
// what makes multi-version appends cheap (§III-E): "whenever a snapshot is
// triggered, the newly created copy shares the initial state with no memory
// overhead and only stores differences to the previous version."
//
// The implementation follows Prokopec, Bronson, Bagwell, Odersky,
// "Concurrent Tries with Efficient Non-Blocking Snapshots" (PPoPP 2012),
// restricted to what an append-only index needs: insert, lookup and O(1)
// writable snapshots. Keys are never removed, so the paper's removal,
// tomb nodes and contraction, read-only snapshots and iteration are left
// out.
//   - CNode/SNode/INode/LNode node kinds,
//   - GCAS (generation-compare-and-swap) for main-node updates,
//   - RDCSS-style double-compare-single-swap on the root for snapshots,
//   - lazy generational copying after a snapshot (copy-on-gen-mismatch).
//
// Memory reclamation: the algorithm assumes a garbage collector; here every
// node carries an intrusive atomic reference count, one reference per link
// that points at it (a CNode slot, an INode's main, a main node's GCAS
// `prev`, an LNode entry, the root slot, an RDCSS descriptor). Copying
// a CNode takes a reference on each child, so snapshots share structure
// exactly as before. The links themselves are plain std::atomic<T*>.
//
// Readers never touch a reference count: each public operation holds one
// epoch guard (ctrie/epoch.h) and follows raw pointers. A node unlinked by
// a successful GCAS or RDCSS, a rolled-back GCAS's node and a finished
// descriptor are retired, not released: their reference is dropped (and
// the node freed, recursively, at zero) only after every guard that could
// have seen them has closed. Destroying a CTrie retires its root. Nodes
// that were never published are released at once.
//
// Hashing consumes 64-bit hashes 6 bits per level (branching factor 64);
// full-hash collisions beyond the deepest level fall back to LNode lists.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <new>
#include <optional>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "ctrie/epoch.h"

namespace idf {

namespace ctrie_detail {

/// Default hasher: routes through idf::Mix64 for integers so that dense key
/// ranges spread across the trie, std::hash for everything else.
template <typename K>
struct DefaultHash {
  uint64_t operator()(const K& k) const {
    if constexpr (std::is_integral_v<K>) {
      return Mix64(static_cast<uint64_t>(k));
    } else {
      return std::hash<K>{}(k);
    }
  }
};

/// Generation stamps are process-unique integers, so a stamp is never
/// reused while an INode still carries it.
inline std::atomic<uint64_t> g_next_gen{1};

}  // namespace ctrie_detail

template <typename K, typename V,
          typename HashFn = ctrie_detail::DefaultHash<K>,
          typename EqFn = std::equal_to<K>>
class CTrie {
  static constexpr int kBitsPerLevel = 6;
  static constexpr uint64_t kLevelMask = (1ULL << kBitsPerLevel) - 1;
  static constexpr int kMaxLevel = 60;  // deeper than this => LNode lists

  // ---- node kinds -----------------------------------------------------

  enum class Kind : uint8_t {
    kSNode,
    kINode,
    kCNode,
    kLNode,
    kFailed,
    kDescriptor,
  };

  struct Node {
    std::atomic<uint32_t> refs{1};
    const Kind kind;
    explicit Node(Kind k) : kind(k) {}
  };

  // A "main node" is what an INode points at. GCAS bookkeeping: `prev` is
  // non-null while the swap that installed this node is uncommitted (it
  // owns the replaced main node); a Failed node there means the swap must
  // be rolled back.
  struct MainNode : Node {
    std::atomic<MainNode*> prev{nullptr};
    explicit MainNode(Kind k) : Node(k) {}
  };

  // Holds (and owns) the main node a failed GCAS rolls back to.
  struct FailedNode final : MainNode {
    explicit FailedNode(MainNode* rollback) : MainNode(Kind::kFailed) {
      this->prev.store(rollback, std::memory_order_relaxed);
    }
  };

  // The elements of a CNode's array ("branches") are SNodes and INodes.
  struct SNode final : Node {
    K key;
    V value;
    uint64_t hash;
    SNode(K k, V v, uint64_t h)
        : Node(Kind::kSNode), key(std::move(k)), value(std::move(v)), hash(h) {}
  };

  struct INode final : Node {
    std::atomic<MainNode*> main;
    const uint64_t gen;
    INode(MainNode* m, uint64_t g) : Node(Kind::kINode), main(m), gen(g) {}
  };

  // Branch array stored inline after the header: one allocation per CNode.
  // A CNode is only ever the main node of INodes of one generation, so it
  // needs no generation stamp of its own.
  struct CNode final : MainNode {
    const uint64_t bmp;
    const uint32_t size;

    static CNode* Make(uint64_t bmp, uint32_t size) {
      void* mem = ::operator new(sizeof(CNode) + size * sizeof(Node*));
      return new (mem) CNode(bmp, size);
    }
    static void Destroy(CNode* cn) {
      cn->~CNode();
      ::operator delete(cn);
    }
    Node** array() { return reinterpret_cast<Node**>(this + 1); }
    Node* const* array() const {
      return reinterpret_cast<Node* const*>(this + 1);
    }

   private:
    CNode(uint64_t b, uint32_t n) : MainNode(Kind::kCNode), bmp(b), size(n) {}
  };
  static_assert(sizeof(CNode) % alignof(Node*) == 0);

  // Collision list for keys whose 64-bit hashes fully coincide. Lists are
  // persistent: updates prepend or rebuild, sharing the tail.
  struct LNode final : MainNode {
    SNode* const sn;
    LNode* const next;
    LNode(SNode* s, LNode* n) : MainNode(Kind::kLNode), sn(s), next(n) {}
  };

  // ---- root slot (RDCSS) ----------------------------------------------

  // The root slot holds either the root INode or an in-flight snapshot
  // descriptor (RDCSS). A descriptor is completed (rolled forward or back)
  // by any thread that observes it; the first completer's decision wins.
  enum Outcome : int { kUndecided, kCommitted, kAborted };
  struct Descriptor final : Node {
    INode* const old_root;  // owned (taken over from the root slot)
    MainNode* const expected_main;
    INode* const new_root;  // owned
    std::atomic<int> outcome{kUndecided};
    Descriptor(INode* o, MainNode* em, INode* n)
        : Node(Kind::kDescriptor), old_root(o), expected_main(em), new_root(n) {}
  };

 public:
  CTrie() : root_(NewRootINode()) {}

  ~CTrie() {
    if (Node* r = root_.load(std::memory_order_relaxed)) Retire(r);
  }

  CTrie(const CTrie&) = delete;
  CTrie& operator=(const CTrie&) = delete;
  CTrie(CTrie&& other) noexcept
      : root_(other.root_.exchange(nullptr)),
        hash_(std::move(other.hash_)),
        eq_(std::move(other.eq_)) {}
  CTrie& operator=(CTrie&& other) noexcept {
    if (this != &other) {
      if (Node* old = root_.exchange(other.root_.exchange(nullptr))) {
        Retire(old);
      }
      hash_ = std::move(other.hash_);
      eq_ = std::move(other.eq_);
    }
    return *this;
  }

  /// Inserts or overwrites; returns the previous value if the key existed.
  /// This "return the old pointer" behaviour is what builds the backward-
  /// pointer chains in IndexedPartition (§III-C, Non-unique Keys).
  std::optional<V> Put(const K& key, V value) {
    const uint64_t h = hash_(key);
    epoch::Guard guard;
    while (true) {
      INode* r = RdcssReadRoot();
      OpResult res = Insert(r, key, value, h, 0, r->gen);
      if (!res.restart) return std::move(res.old_value);
    }
  }

  std::optional<V> Lookup(const K& key) const {
    const uint64_t h = hash_(key);
    epoch::Guard guard;
    while (true) {
      INode* r = RdcssReadRoot();
      OpResult res = DoLookup(r, key, h, 0, r->gen);
      if (!res.restart) return std::move(res.old_value);
    }
  }

  /// O(1) writable snapshot. Both the snapshot and this trie keep sharing
  /// all current nodes; each lazily re-generates the path it subsequently
  /// writes (copy-on-gen-mismatch).
  CTrie Snapshot() {
    epoch::Guard guard;
    while (true) {
      INode* r = RdcssReadRoot();
      MainNode* expmain = GcasRead(r);
      // Install a fresh-gen copy of the root into *this* trie ...
      if (RdcssRootSwap(r, expmain, CopyToNewGen(expmain))) {
        // ... and hand the snapshot its own fresh-gen copy of the old root.
        return CTrie(CopyToNewGen(expmain), hash_, eq_);
      }
    }
  }

  /// Structural memory statistics for the memory-overhead experiment
  /// (Fig. 11). Counts nodes reachable from the current root; shared
  /// snapshot structure is counted once per trie that walks it. The walk
  /// reads each main node once and never re-stamps a path, so under
  /// concurrent Puts it counts every entry present when it started and
  /// none that a Put had not yet added when it finished.
  struct MemoryStats {
    size_t cnodes = 0;
    size_t snodes = 0;
    size_t inodes = 0;
    size_t lnodes = 0;
    size_t approx_bytes = 0;
  };
  MemoryStats ComputeMemoryStats() const {
    MemoryStats stats;
    epoch::Guard guard;
    StatsWalkINode(RdcssReadRoot(), stats);
    return stats;
  }

 private:
  struct OpResult {
    bool restart = false;
    std::optional<V> old_value;
    static OpResult Restart() { return {true, std::nullopt}; }
    static OpResult Done(std::optional<V> old = std::nullopt) {
      return {false, std::move(old)};
    }
  };

  CTrie(INode* root, HashFn hash, EqFn eq)
      : root_(root), hash_(hash), eq_(eq) {}

  // ---- ownership ------------------------------------------------------

  /// Takes one more reference on `n` (held by the caller's new link).
  template <typename T>
  static T* Shared(T* n) {
    n->refs.fetch_add(1, std::memory_order_relaxed);
    return n;
  }

  /// Gives back a reference the caller took while another owner still
  /// holds one, so the count cannot reach zero here.
  static void Unshare(Node* n) {
    n->refs.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Drops a reference no open guard can still be following through: a
  /// never-published node, or (from the reclaimer) a node already retired.
  static void Release(Node* n) {
    if (n->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) Free(n);
  }

  /// Drops a reference to a node just unlinked from shared memory, once
  /// every guard open now has closed.
  static void Retire(Node* n) {
    epoch::Retire(n, [](void* p) { Release(static_cast<Node*>(p)); });
  }

  static void ReleasePrev(MainNode* m) {
    if (MainNode* p = m->prev.load(std::memory_order_relaxed)) Release(p);
  }

  static void Free(Node* n) {
    switch (n->kind) {
      case Kind::kSNode:
        delete static_cast<SNode*>(n);
        return;
      case Kind::kINode: {
        auto* in = static_cast<INode*>(n);
        Release(in->main.load(std::memory_order_relaxed));
        delete in;
        return;
      }
      case Kind::kCNode: {
        auto* cn = static_cast<CNode*>(n);
        for (uint32_t i = 0; i < cn->size; ++i) Release(cn->array()[i]);
        ReleasePrev(cn);
        CNode::Destroy(cn);
        return;
      }
      case Kind::kLNode: {
        auto* ln = static_cast<LNode*>(n);
        Release(ln->sn);
        if (ln->next != nullptr) Release(ln->next);
        ReleasePrev(ln);
        delete ln;
        return;
      }
      case Kind::kFailed: {
        auto* fn = static_cast<FailedNode*>(n);
        ReleasePrev(fn);
        delete fn;
        return;
      }
      case Kind::kDescriptor: {
        auto* d = static_cast<Descriptor*>(n);
        Release(d->old_root);
        Release(d->new_root);
        delete d;
        return;
      }
    }
  }

  static uint64_t NewGen() {
    return ctrie_detail::g_next_gen.fetch_add(1, std::memory_order_relaxed);
  }

  static INode* NewRootINode() {
    const uint64_t gen = NewGen();
    return new INode(CNode::Make(0, 0), gen);
  }

  /// A new INode holding `main` adopted into a brand-new generation.
  INode* CopyToNewGen(MainNode* main) const {
    const uint64_t gen = NewGen();
    return new INode(RegenerateMain(main), gen);
  }

  /// A main node for an INode of another generation: CNodes are copied
  /// (sharing their branches); LNodes are immutable and shared.
  MainNode* RegenerateMain(MainNode* m) const {
    if (m->kind == Kind::kCNode) {
      const auto* cn = static_cast<const CNode*>(m);
      CNode* out = CNode::Make(cn->bmp, cn->size);
      for (uint32_t i = 0; i < cn->size; ++i) {
        out->array()[i] = Shared(cn->array()[i]);
      }
      return out;
    }
    return Shared(m);
  }

  // ---- RDCSS root access ------------------------------------------------

  INode* RdcssReadRoot(bool abort = false) const {
    while (true) {
      Node* r = root_.load();
      if (r->kind == Kind::kINode) return static_cast<INode*>(r);
      RdcssComplete(static_cast<Descriptor*>(r), abort);
    }
  }

  void RdcssComplete(Descriptor* d, bool abort) const {
    int outcome = d->outcome.load();
    if (outcome == kUndecided) {
      const int proposal =
          !abort && GcasRead(d->old_root) == d->expected_main ? kCommitted
                                                               : kAborted;
      if (d->outcome.compare_exchange_strong(outcome, proposal)) {
        outcome = proposal;
      }
    }
    INode* target =
        Shared(outcome == kCommitted ? d->new_root : d->old_root);
    Node* expected = d;
    if (root_.compare_exchange_strong(expected, target)) {
      Retire(d);
    } else {
      Unshare(target);  // another completer swung the root; d still owns it
    }
  }

  /// Swaps `old_root` for `new_root` if `old_root`'s main is still
  /// `expected_main`. Takes ownership of `new_root`.
  bool RdcssRootSwap(INode* old_root, MainNode* expected_main,
                     INode* new_root) const {
    auto* d = new Descriptor(old_root, expected_main, new_root);
    Node* expected = old_root;
    if (!root_.compare_exchange_strong(expected, d)) {
      Release(new_root);  // never published; d never owned old_root
      delete d;
      return false;
    }
    RdcssComplete(d, /*abort=*/false);
    return d->outcome.load() == kCommitted;
  }

  // ---- GCAS ---------------------------------------------------------------

  MainNode* GcasRead(INode* in) const {
    MainNode* m = in->main.load();
    if (m->prev.load() == nullptr) return m;
    return GcasCommit(in, m);
  }

  MainNode* GcasCommit(INode* in, MainNode* m) const {
    while (true) {
      MainNode* p = m->prev.load();
      INode* r = RdcssReadRoot(/*abort=*/true);
      if (p == nullptr) return m;
      if (p->kind == Kind::kFailed) {
        // The swap failed; roll the INode back to the pre-swap main node.
        MainNode* rollback = Shared(p->prev.load());
        MainNode* expected = m;
        if (in->main.compare_exchange_strong(expected, rollback)) {
          Retire(m);
          return rollback;
        }
        Unshare(rollback);  // someone else rolled back; p still owns it
        m = in->main.load();
        continue;
      }
      // Commit if the trie's generation still matches this INode's.
      if (r->gen == in->gen) {
        MainNode* expected_prev = p;
        if (m->prev.compare_exchange_strong(expected_prev, nullptr)) {
          Retire(p);
          return m;
        }
        continue;  // somebody else moved prev; re-inspect
      }
      // Generation changed mid-swap: mark failed and retry from main. The
      // failed node takes over prev's reference on p.
      auto* failed = new FailedNode(p);
      MainNode* expected_prev = p;
      if (!m->prev.compare_exchange_strong(expected_prev, failed)) {
        failed->prev.store(nullptr, std::memory_order_relaxed);
        delete failed;
      }
      m = in->main.load();
    }
  }

  /// Installs `new_main` (owned by the caller) over `old_main`. On success
  /// the INode owns it; on failure it is released.
  bool Gcas(INode* in, MainNode* old_main, MainNode* new_main) const {
    new_main->prev.store(old_main, std::memory_order_relaxed);
    MainNode* expected = old_main;
    if (in->main.compare_exchange_strong(expected, new_main)) {
      // The INode's reference on old_main now belongs to new_main->prev.
      GcasCommit(in, new_main);
      return new_main->prev.load() == nullptr;
    }
    new_main->prev.store(nullptr, std::memory_order_relaxed);
    Release(new_main);
    return false;
  }

  // ---- CNode helpers ------------------------------------------------------

  static void FlagPos(uint64_t hash, int level, uint64_t bmp, uint64_t* flag,
                      int* pos) {
    const uint64_t idx = (hash >> level) & kLevelMask;
    *flag = 1ULL << idx;
    *pos = std::popcount(bmp & (*flag - 1));
  }

  // The copies below share every branch of `cn` (one reference each) and
  // take over the caller's reference on `branch`. A copy replaces `cn` in
  // the same INode, so generations need no handling here.

  CNode* CNodeInserted(const CNode& cn, int pos, uint64_t flag,
                       Node* branch) const {
    CNode* out = CNode::Make(cn.bmp | flag, cn.size + 1);
    const auto at = static_cast<uint32_t>(pos);
    for (uint32_t i = 0; i < at; ++i) out->array()[i] = Shared(cn.array()[i]);
    out->array()[at] = branch;
    for (uint32_t i = at; i < cn.size; ++i) {
      out->array()[i + 1] = Shared(cn.array()[i]);
    }
    return out;
  }

  CNode* CNodeUpdated(const CNode& cn, int pos, Node* branch) const {
    CNode* out = CNode::Make(cn.bmp, cn.size);
    const auto at = static_cast<uint32_t>(pos);
    for (uint32_t i = 0; i < cn.size; ++i) {
      out->array()[i] = i == at ? branch : Shared(cn.array()[i]);
    }
    return out;
  }

  /// A CNode whose INode children are re-stamped to `gen` (lazy snapshot
  /// propagation — shared subtrees are copied only along written paths).
  /// Children already in `gen` are kept, not copied: a writer of this
  /// generation may be committing into one right now, and a copy would
  /// detach its update. (A CNode can mix generations: RegenerateMain copies
  /// a CNode without renewing its children, and a new INode can then be
  /// added beside them.)
  CNode* RenewCNode(const CNode& cn, uint64_t gen) const {
    CNode* out = CNode::Make(cn.bmp, cn.size);
    for (uint32_t i = 0; i < cn.size; ++i) {
      Node* b = cn.array()[i];
      if (b->kind == Kind::kINode && static_cast<INode*>(b)->gen != gen) {
        MainNode* m = GcasRead(static_cast<INode*>(b));
        out->array()[i] = new INode(RegenerateMain(m), gen);
      } else {
        out->array()[i] = Shared(b);
      }
    }
    return out;
  }

  /// Builds the two-entry subtree distinguishing x and y below `level`.
  /// Takes over the caller's references on x and y.
  MainNode* DualBranch(SNode* x, SNode* y, int level, uint64_t gen) const {
    if (level > kMaxLevel) return new LNode(x, new LNode(y, nullptr));
    const uint64_t xidx = (x->hash >> level) & kLevelMask;
    const uint64_t yidx = (y->hash >> level) & kLevelMask;
    if (xidx == yidx) {
      auto* in = new INode(DualBranch(x, y, level + kBitsPerLevel, gen), gen);
      CNode* cn = CNode::Make(1ULL << xidx, 1);
      cn->array()[0] = in;
      return cn;
    }
    CNode* cn = CNode::Make((1ULL << xidx) | (1ULL << yidx), 2);
    cn->array()[0] = xidx < yidx ? x : y;
    cn->array()[1] = xidx < yidx ? y : x;
    return cn;
  }

  // ---- LNode helpers --------------------------------------------------

  std::optional<V> LNodeLookup(const LNode* ln, const K& key) const {
    for (const LNode* p = ln; p != nullptr; p = p->next) {
      if (eq_(p->sn->key, key)) return p->sn->value;
    }
    return std::nullopt;
  }

  /// A copy of the list without `key`; Insert prepends the key's new SNode
  /// to it to overwrite the key.
  LNode* LNodeRemoved(const LNode* ln, const K& key) const {
    std::vector<SNode*> keep;
    for (const LNode* p = ln; p != nullptr; p = p->next) {
      if (!eq_(p->sn->key, key)) keep.push_back(p->sn);
    }
    LNode* out = nullptr;
    for (auto it = keep.rbegin(); it != keep.rend(); ++it) {
      out = new LNode(Shared(*it), out);
    }
    return out;
  }

  // ---- core recursive operations ----------------------------------------

  OpResult Insert(INode* in, const K& key, const V& value, uint64_t h,
                  int level, uint64_t start_gen) {
    MainNode* m = GcasRead(in);
    switch (m->kind) {
      case Kind::kCNode: {
        const auto* cn = static_cast<const CNode*>(m);
        uint64_t flag;
        int pos;
        FlagPos(h, level, cn->bmp, &flag, &pos);
        if ((cn->bmp & flag) == 0) {
          // Free slot: insert a fresh SNode here.
          CNode* updated =
              CNodeInserted(*cn, pos, flag, new SNode(key, value, h));
          return Gcas(in, m, updated) ? OpResult::Done() : OpResult::Restart();
        }
        Node* b = cn->array()[pos];
        if (b->kind == Kind::kINode) {
          auto* child = static_cast<INode*>(b);
          if (start_gen == child->gen) {
            return Insert(child, key, value, h, level + kBitsPerLevel,
                          start_gen);
          }
          // Generation mismatch: renew this CNode's children, then retry.
          if (Gcas(in, m, RenewCNode(*cn, in->gen))) {
            return Insert(in, key, value, h, level, start_gen);
          }
          return OpResult::Restart();
        }
        // SNode in the slot.
        auto* sn = static_cast<SNode*>(b);
        if (sn->hash == h && eq_(sn->key, key)) {
          CNode* updated = CNodeUpdated(*cn, pos, new SNode(key, value, h));
          // sn stays readable until this guard closes, even once replaced.
          return Gcas(in, m, updated) ? OpResult::Done(sn->value)
                                      : OpResult::Restart();
        }
        // Different key: grow a level.
        MainNode* sub = DualBranch(Shared(sn), new SNode(key, value, h),
                                   level + kBitsPerLevel, in->gen);
        CNode* updated = CNodeUpdated(*cn, pos, new INode(sub, in->gen));
        return Gcas(in, m, updated) ? OpResult::Done() : OpResult::Restart();
      }
      case Kind::kLNode: {
        auto* ln = static_cast<LNode*>(m);
        std::optional<V> existing = LNodeLookup(ln, key);
        LNode* rest = existing.has_value() ? LNodeRemoved(ln, key) : Shared(ln);
        auto* updated = new LNode(new SNode(key, value, h), rest);
        return Gcas(in, m, updated) ? OpResult::Done(existing)
                                    : OpResult::Restart();
      }
      case Kind::kFailed:
        return OpResult::Restart();
      default:
        IDF_CHECK_MSG(false, "corrupt CTrie main node");
    }
    return OpResult::Restart();
  }

  OpResult DoLookup(INode* in, const K& key, uint64_t h, int level,
                    uint64_t start_gen) const {
    MainNode* m = GcasRead(in);
    switch (m->kind) {
      case Kind::kCNode: {
        const auto* cn = static_cast<const CNode*>(m);
        uint64_t flag;
        int pos;
        FlagPos(h, level, cn->bmp, &flag, &pos);
        if ((cn->bmp & flag) == 0) return OpResult::Done();
        Node* b = cn->array()[pos];
        if (b->kind == Kind::kINode) {
          auto* child = static_cast<INode*>(b);
          if (start_gen == child->gen) {
            return DoLookup(child, key, h, level + kBitsPerLevel, start_gen);
          }
          if (Gcas(in, m, RenewCNode(*cn, in->gen))) {
            return DoLookup(in, key, h, level, start_gen);
          }
          return OpResult::Restart();
        }
        const auto* sn = static_cast<const SNode*>(b);
        if (sn->hash == h && eq_(sn->key, key)) return OpResult::Done(sn->value);
        return OpResult::Done();
      }
      case Kind::kLNode:
        return OpResult::Done(LNodeLookup(static_cast<const LNode*>(m), key));
      case Kind::kFailed:
        return OpResult::Restart();
      default:
        IDF_CHECK_MSG(false, "corrupt CTrie main node");
    }
    return OpResult::Restart();
  }

  void StatsWalkINode(INode* in, MemoryStats& stats) const {
    ++stats.inodes;
    stats.approx_bytes += sizeof(INode);
    const MainNode* m = GcasRead(in);
    switch (m->kind) {
      case Kind::kCNode: {
        const auto* cn = static_cast<const CNode*>(m);
        ++stats.cnodes;
        stats.approx_bytes += sizeof(CNode) + cn->size * sizeof(Node*);
        for (uint32_t i = 0; i < cn->size; ++i) {
          Node* b = cn->array()[i];
          if (b->kind == Kind::kINode) {
            StatsWalkINode(static_cast<INode*>(b), stats);
          } else {
            ++stats.snodes;
            stats.approx_bytes += sizeof(SNode);
          }
        }
        break;
      }
      case Kind::kLNode:
        for (const auto* p = static_cast<const LNode*>(m); p != nullptr;
             p = p->next) {
          ++stats.lnodes;
          stats.approx_bytes += sizeof(LNode) + sizeof(SNode);
        }
        break;
      default:
        break;
    }
  }

  // Root slot: the root INode, or an RDCSS descriptor in flight. Owns one
  // reference. Mutable because readers help complete descriptors and GCAS.
  mutable std::atomic<Node*> root_;
  HashFn hash_{};
  EqFn eq_{};
};

}  // namespace idf
