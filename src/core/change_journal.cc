#include "core/change_journal.h"

#include <linux/magic.h>
#include <sys/inotify.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace lazyetl::core {
namespace {

// Directory events that can change what a path under the directory names
// or holds. IN_IGNORED, IN_UNMOUNT and IN_Q_OVERFLOW are always reported.
constexpr uint32_t kDirMask = IN_MODIFY | IN_ATTRIB | IN_MOVED_FROM |
                              IN_MOVED_TO | IN_CREATE | IN_DELETE |
                              IN_DELETE_SELF | IN_MOVE_SELF | IN_ONLYDIR;

// Local filesystems whose writes all pass through the kernel that queues the
// events: a remote, FUSE or overlay filesystem can change under a watch
// without one.
bool Supported(const std::string& dir) {
  struct ::statfs fs;
  if (::statfs(dir.c_str(), &fs) != 0) return false;
  switch (static_cast<unsigned long>(fs.f_type)) {
    case EXT4_SUPER_MAGIC:  // also ext2 and ext3
    case XFS_SUPER_MAGIC:
    case BTRFS_SUPER_MAGIC:
    case TMPFS_MAGIC:
      return true;
    default:
      return false;
  }
}

std::string ParentDir(const std::string& path) {
  const size_t cut = path.rfind('/');
  if (cut == std::string::npos) return ".";
  return cut == 0 ? "/" : path.substr(0, cut);
}

}  // namespace

ChangeJournal::~ChangeJournal() {
  if (fd_ >= 0) ::close(fd_);
}

ChangeJournal::Slot* ChangeJournal::Find(int64_t file_id) const {
  if (file_id < 1) return nullptr;
  const size_t index = static_cast<size_t>(file_id - 1);
  if (index / kSlotsPerChunk >= kMaxChunks) return nullptr;
  Slot* chunk = chunks_[index / kSlotsPerChunk].load(std::memory_order_acquire);
  return chunk == nullptr ? nullptr : &chunk[index % kSlotsPerChunk];
}

ChangeJournal::Slot* ChangeJournal::SlotLocked(int64_t file_id) {
  if (file_id < 1) return nullptr;
  const size_t chunk = static_cast<size_t>(file_id - 1) / kSlotsPerChunk;
  if (chunk >= kMaxChunks) return nullptr;
  if (chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
    owned_chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
    chunks_[chunk].store(owned_chunks_.back().get(),
                         std::memory_order_release);
  }
  return Find(file_id);
}

int32_t ChangeJournal::NodeLocked(const std::string& dir,
                                  const std::string& root) {
  auto it = node_by_path_.find(dir);
  if (it != node_by_path_.end()) return it->second;
  // Directories strictly below the root hang off their parent, so a rename
  // of any directory on the path reaches the watch of the one above it.
  std::string top = root;
  while (top.size() > 1 && top.back() == '/') top.pop_back();
  int32_t parent = -1;
  if (dir.size() > top.size() && dir.compare(0, top.size(), top) == 0 &&
      (dir[top.size()] == '/' || top == "/")) {
    parent = NodeLocked(ParentDir(dir), root);
  }
  const int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[id].path = dir;
  nodes_[id].parent = parent;
  node_by_path_[dir] = id;
  if (parent >= 0) {
    nodes_[parent].children[dir.substr(dir.rfind('/') + 1)] = id;
  }
  return id;
}

bool ChangeJournal::WatchLocked(int32_t id) {
  if (nodes_[id].watched) return true;
  const int32_t parent = nodes_[id].parent;
  if (parent >= 0 && !WatchLocked(parent)) return false;
  Node& node = nodes_[id];
  // Adding a watch to a watched inode returns its descriptor unchanged, so
  // re-binding a live watch loses no event.
  const int wd = Supported(node.path)
                     ? ::inotify_add_watch(fd_, node.path.c_str(), kDirMask)
                     : -1;
  if (wd != node.wd && node.wd >= 0) {
    node_by_wd_.erase(node.wd);
    ::inotify_rm_watch(fd_, node.wd);
    node.wd = -1;
  }
  // A descriptor another node owns means two paths name one directory.
  if (wd < 0 || (wd != node.wd && !node_by_wd_.emplace(wd, id).second)) {
    return false;
  }
  node.wd = wd;
  node.watched = true;
  // A stat already under way began before this watch: void it.
  for (const auto& [name, file_id] : node.files) {
    if (Slot* slot = Find(file_id)) {
      slot->watched.store(true, std::memory_order_release);
      DirtyLocked(slot);
    }
  }
  return true;
}

void ChangeJournal::UnwatchLocked(int32_t id, bool watch_gone) {
  Node& node = nodes_[id];
  if (node.wd >= 0) {
    node_by_wd_.erase(node.wd);
    if (!watch_gone) ::inotify_rm_watch(fd_, node.wd);
    node.wd = -1;
  }
  node.watched = false;
  for (const auto& [name, file_id] : node.files) {
    if (Slot* slot = Find(file_id)) {
      slot->watched.store(false, std::memory_order_release);
      DirtyLocked(slot);
    }
  }
  for (const auto& [name, child] : node.children) {
    UnwatchLocked(child, /*watch_gone=*/false);
  }
}

void ChangeJournal::DirtyLocked(Slot* slot) {
  slot->gen.fetch_add(1, std::memory_order_release);
  StoreLocked(slot, 0, mseed::FileStatInfo{});
}

void ChangeJournal::StoreLocked(Slot* slot, uint64_t epoch,
                                const mseed::FileStatInfo& st) {
  const uint64_t seq = slot->seq.load(std::memory_order_relaxed);
  slot->seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot->vouched_epoch.store(epoch, std::memory_order_relaxed);
  slot->mtime.store(st.mtime, std::memory_order_relaxed);
  slot->size.store(st.size, std::memory_order_relaxed);
  slot->seq.store(seq + 2, std::memory_order_release);
}

void ChangeJournal::RearmLocked() {
  epoch_.fetch_add(1, std::memory_order_release);
  for (Node& node : nodes_) node.watched = false;
  for (size_t id = 0; id < nodes_.size(); ++id) {
    if (!WatchLocked(static_cast<int32_t>(id))) {
      UnwatchLocked(static_cast<int32_t>(id), /*watch_gone=*/false);
    }
  }
  // Stats begun while the watches were re-bound carry the old epoch.
  epoch_.fetch_add(1, std::memory_order_release);
}

void ChangeJournal::DrainLocked() {
  if (fd_ < 0) return;
  alignas(struct inotify_event) char buf[8192];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // Anything but an empty queue may have lost events.
      if (n == 0 || errno != EAGAIN) RearmLocked();
      return;
    }
    for (ssize_t at = 0; at < n;) {
      struct inotify_event ev;
      std::memcpy(&ev, buf + at, sizeof(ev));
      const char* name = buf + at + sizeof(ev);
      at += static_cast<ssize_t>(sizeof(ev) + ev.len);
      ++events_;
      if (ev.mask & IN_Q_OVERFLOW) {
        ++overflows_;
        RearmLocked();
        continue;
      }
      auto it = node_by_wd_.find(ev.wd);
      if (it == node_by_wd_.end()) continue;  // a watch already dropped
      const int32_t id = it->second;
      // An event without a name is about the directory itself: moved,
      // deleted, unmounted, its attributes changed, or its watch dropped.
      if (ev.len == 0) {
        UnwatchLocked(id, (ev.mask & IN_IGNORED) != 0);
        continue;
      }
      // A directory below gets its own events; only files matter here.
      const Node& node = nodes_[id];
      auto file = node.files.find(std::string(name, ::strnlen(name, ev.len)));
      if (file != node.files.end()) {
        if (Slot* slot = Find(file->second)) DirtyLocked(slot);
      }
    }
  }
}

ChangeJournal::Ticket ChangeJournal::Watch(int64_t file_id,
                                           const std::string& path,
                                           const std::string& root) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!init_tried_) {
    init_tried_ = true;
    fd_ = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  }
  Slot* slot = fd_ >= 0 ? SlotLocked(file_id) : nullptr;
  if (slot == nullptr) {
    ++files_without_slot_;
    return Ticket{};
  }
  const int32_t id = NodeLocked(ParentDir(path), root);
  nodes_[id].files[path.substr(path.rfind('/') + 1)] = file_id;
  slot->node = id;
  slot->watched.store(WatchLocked(id), std::memory_order_release);
  return TicketFor(slot);
}

void ChangeJournal::Record(int64_t file_id, const Ticket& ticket,
                           const mseed::FileStatInfo& st) {
  RecordSlot(Find(file_id), ticket, st);
}

void ChangeJournal::Forget(int64_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot* slot = Find(file_id);
  if (slot == nullptr || slot->node < 0) return;
  auto& files = nodes_[slot->node].files;
  for (auto it = files.begin(); it != files.end(); ++it) {
    if (it->second == file_id) {
      files.erase(it);
      break;
    }
  }
  slot->node = -1;
  slot->watched.store(false, std::memory_order_release);
  DirtyLocked(slot);
}

void ChangeJournal::Rearm() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;
  DrainLocked();
  RearmLocked();
}

ChangeJournal::Batch ChangeJournal::BeginBatch() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  return Batch(this);
}

ChangeJournal::Ticket ChangeJournal::TicketFor(const Slot* slot) const {
  Ticket ticket;
  ticket.epoch = epoch_.load(std::memory_order_acquire);
  if (slot != nullptr) ticket.gen = slot->gen.load(std::memory_order_acquire);
  return ticket;
}

void ChangeJournal::RecordSlot(Slot* slot, const Ticket& ticket,
                               const mseed::FileStatInfo& st) {
  if (slot == nullptr || !slot->watched.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  slot->plain = st.plain;
  // An event drained since the ticket changed the generation or epoch.
  if (st.plain && slot->watched.load(std::memory_order_relaxed) &&
      slot->gen.load(std::memory_order_relaxed) == ticket.gen &&
      epoch_.load(std::memory_order_relaxed) == ticket.epoch) {
    StoreLocked(slot, ticket.epoch, st);
  }
}

bool ChangeJournal::Batch::Vouched(int64_t file_id,
                                   mseed::FileStatInfo* st) const {
  const Slot* slot = journal_->Find(file_id);
  if (slot == nullptr) return false;
  const uint64_t seq = slot->seq.load(std::memory_order_acquire);
  if (seq & 1) return false;  // a writer is mid-update: stat instead
  const uint64_t epoch = slot->vouched_epoch.load(std::memory_order_relaxed);
  const NanoTime mtime = slot->mtime.load(std::memory_order_relaxed);
  const uint64_t size = slot->size.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot->seq.load(std::memory_order_relaxed) != seq ||
      epoch != journal_->epoch_.load(std::memory_order_acquire)) {
    return false;
  }
  st->mtime = mtime;
  st->size = size;
  st->plain = true;
  return true;
}

Result<mseed::FileStatInfo> ChangeJournal::Batch::Stat(
    int64_t file_id, const std::string& path, uint64_t* statted) const {
  mseed::FileStatInfo st;
  if (Vouched(file_id, &st)) return st;
  ++*statted;
  Slot* slot = journal_->Find(file_id);
  const Ticket ticket = journal_->TicketFor(slot);
  Result<mseed::FileStatInfo> current = mseed::StatFile(path);
  if (current.ok()) journal_->RecordSlot(slot, ticket, *current);
  return current;
}

ChangeJournalStats ChangeJournal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ChangeJournalStats out;
  out.events_drained = events_;
  out.queue_overflows = overflows_;
  out.files_untracked = files_without_slot_;
  for (const Node& node : nodes_) {
    for (const auto& [name, file_id] : node.files) {
      const Slot* slot = Find(file_id);
      if (node.watched && slot->plain) {
        ++out.files_tracked;
      } else {
        ++out.files_untracked;
      }
    }
  }
  return out;
}

}  // namespace lazyetl::core
