// ChangeJournal: the query-time freshness checks of the lazy refresh (§3.3)
// answered from a kernel change journal instead of one stat per file.
//
// Before a query runs, the lazy refresh needs the current (mtime, size) of
// each candidate file. The journal holds one non-blocking inotify instance
// with a watch on every directory from each repository root down to the
// directories holding attached files, and remembers the last stat of each
// file. It answers from memory ("vouches") for file F only while:
//
//   - every directory on F's path was watched before the stat it holds;
//   - no event naming F, no event on a directory on its path and no queue
//     overflow has been drained since that stat began (a per-file
//     generation counter, so a drain racing the stat is never lost);
//   - that stat found a regular file, named without a symlink, with one
//     link, on ext2/3/4, xfs, btrfs or tmpfs.
//
// Any other file is statted exactly as without a journal: no inotify
// instance, a failed watch, another filesystem, a symlink or hard link, or
// a directory whose watch was lost (its files are statted until Refresh()
// or an attach in that directory watches them again). A queue overflow
// forgets every vouched stat and re-binds every watch to its path.
//
// Freshness contract: a batch of checks drains the pending events first.
// The kernel queues an event inside the modifying syscall (write, truncate,
// utimensat, rename, unlink), so a batch reflects every change whose
// syscall returned before the batch began — what a stat at that point
// would show. Two kinds of change raise no event the journal sees: a write
// through a shared writable mapping, and a write through a hard link made
// after the file's last stat. Refresh() calls Rearm(), after which every
// file is statted once more.

#ifndef LAZYETL_CORE_CHANGE_JOURNAL_H_
#define LAZYETL_CORE_CHANGE_JOURNAL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "mseed/reader.h"

namespace lazyetl::core {

struct ChangeJournalStats {
  uint64_t files_tracked = 0;    // answered from memory once statted
  uint64_t files_untracked = 0;  // statted on every check
  uint64_t events_drained = 0;
  uint64_t queue_overflows = 0;
};

class ChangeJournal {
 public:
  ChangeJournal() = default;
  ~ChangeJournal();
  ChangeJournal(const ChangeJournal&) = delete;
  ChangeJournal& operator=(const ChangeJournal&) = delete;

  // What a stat must be checked against before the journal keeps it.
  struct Ticket {
    uint64_t epoch = 0;
    uint64_t gen = 0;
  };

  // Starts tracking file `file_id` at `path`, found under the repository
  // root `root`: watches every directory from `root` down to the file's
  // (re-adding lost watches). Returns the ticket for a stat of the file
  // that begins after this call; Record() keeps that stat, so the attach
  // stat answers the first query.
  Ticket Watch(int64_t file_id, const std::string& path,
               const std::string& root);

  // Keeps `st`, a stat begun after `ticket` was taken, unless an event
  // drained since then voided it or the file is not one to vouch for.
  void Record(int64_t file_id, const Ticket& ticket,
              const mseed::FileStatInfo& st);

  // Stops answering for a file dropped from the registry.
  void Forget(int64_t file_id);

  // Re-binds every directory watch to its path, re-adding lost ones, and
  // forgets every vouched stat.
  void Rearm();

  // One batch of freshness checks. Creating it drains the pending events,
  // so its answers reflect every change whose syscall returned before.
  class Batch {
   public:
    // The file's (mtime, size) from memory, when the journal vouches.
    bool Vouched(int64_t file_id, mseed::FileStatInfo* st) const;

    // The file's (mtime, size): from memory when vouched, else a real stat
    // (counted in *statted) that the journal keeps when it may.
    Result<mseed::FileStatInfo> Stat(int64_t file_id, const std::string& path,
                                     uint64_t* statted) const;

   private:
    friend class ChangeJournal;
    explicit Batch(ChangeJournal* journal) : journal_(journal) {}
    ChangeJournal* journal_;
  };
  Batch BeginBatch();

  ChangeJournalStats stats() const;

 private:
  // Per-file state, read without a lock: the vouched stat sits behind a
  // sequence lock whose writers hold mu_.
  struct Slot {
    std::atomic<uint64_t> seq{0};  // odd while a writer updates the stat
    std::atomic<uint64_t> vouched_epoch{0};  // 0 = not vouched
    std::atomic<int64_t> mtime{0};
    std::atomic<uint64_t> size{0};
    std::atomic<uint64_t> gen{0};  // bumped whenever the vouch is voided
    std::atomic<bool> watched{false};  // every directory on its path
    // Guarded by mu_.
    int32_t node = -1;
    bool plain = false;  // regular, no symlink, one link at the last stat
  };
  static constexpr size_t kSlotsPerChunk = 1024;
  static constexpr size_t kMaxChunks = 4096;

  // One directory on the path of attached files.
  struct Node {
    std::string path;
    int32_t parent = -1;
    int wd = -1;
    bool watched = false;  // this directory and every ancestor
    std::unordered_map<std::string, int64_t> files;     // name -> file_id
    std::unordered_map<std::string, int32_t> children;  // name -> node
  };

  Slot* Find(int64_t file_id) const;
  Slot* SlotLocked(int64_t file_id);
  int32_t NodeLocked(const std::string& dir, const std::string& root);
  bool WatchLocked(int32_t node);
  void UnwatchLocked(int32_t node, bool watch_gone);
  void RearmLocked();
  void DrainLocked();
  void DirtyLocked(Slot* slot);
  void StoreLocked(Slot* slot, uint64_t epoch, const mseed::FileStatInfo& st);
  Ticket TicketFor(const Slot* slot) const;
  void RecordSlot(Slot* slot, const Ticket& ticket,
                  const mseed::FileStatInfo& st);

  mutable std::mutex mu_;
  bool init_tried_ = false;
  int fd_ = -1;
  std::vector<Node> nodes_;
  std::unordered_map<std::string, int32_t> node_by_path_;
  std::unordered_map<int, int32_t> node_by_wd_;
  std::vector<std::unique_ptr<Slot[]>> owned_chunks_;
  uint64_t files_without_slot_ = 0;
  uint64_t events_ = 0;
  uint64_t overflows_ = 0;
  // Bumped (under mu_) after a rearm: vouched stats of older epochs lapse.
  std::atomic<uint64_t> epoch_{1};
  std::array<std::atomic<Slot*>, kMaxChunks> chunks_{};
};

}  // namespace lazyetl::core

#endif  // LAZYETL_CORE_CHANGE_JOURNAL_H_
