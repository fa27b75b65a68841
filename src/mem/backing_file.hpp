// Backing files: the functional contents behind mmap-style regions.
//
// A BackingFile is the machine-wide, process-independent byte store a
// file-backed AddressSpace region resolves to — the role /usr/lib/libc.so
// or a data file plays on a real machine. Like the AddressSpace backing
// store (swap contents) and the SwapScheduler (swap timing), the split is
// strict: BackingFile holds *bytes* and completes in zero simulated time;
// the *cost* of moving those bytes is charged by the paging layer
// (paging::BufferCache) when the OS paths invoke it.
//
// Files are block-granular where one block == one page: a file-backed vpn
// maps to exactly one (file, block) pair, first-touch faults lazy-load that
// block, and dirty shared mappings write the block back. The FileStore owns
// every file on the machine and hands out dense ids — the keys the
// machine-wide buffer cache indexes by.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace vmsls::mem {

class BackingFile {
 public:
  /// `bytes` is rounded up to a whole number of blocks (a partial tail
  /// block would force every consumer to carry a clamp; nothing in the
  /// model needs sub-block files).
  BackingFile(u32 id, std::string name, u64 bytes, u64 block_bytes);

  BackingFile(const BackingFile&) = delete;
  BackingFile& operator=(const BackingFile&) = delete;

  u32 id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  u64 size_bytes() const noexcept { return static_cast<u64>(data_.size()); }
  u64 block_bytes() const noexcept { return block_bytes_; }
  u64 blocks() const noexcept { return size_bytes() / block_bytes_; }

  /// Direct view of one block's bytes — the eviction path reads frame
  /// contents straight into it and map_page fills frames straight from it.
  std::span<u8> block_data(u64 block);
  std::span<const u8> block_data(u64 block) const;

  /// Byte-granular access for experiment setup (loading input data) and
  /// result verification. Zero simulated time, like everything here.
  void write(u64 offset, std::span<const u8> data);
  void read(u64 offset, std::span<u8> out) const;

 private:
  u32 id_;
  std::string name_;
  u64 block_bytes_;
  std::vector<u8> data_;
};

/// Machine-wide file registry: one per sls::Machine (every process of a
/// ProcessGroup maps regions of the same files — that is what makes the
/// buffer cache shared in a meaningful sense).
class FileStore {
 public:
  /// `block_bytes` must equal the platform page size — a file block and a
  /// page are the same unit throughout the paging layer.
  explicit FileStore(u64 block_bytes);

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  /// Creates a file of (at least) `bytes` zeroed bytes. Creation order
  /// fixes ids — deterministic under the harness's setup-order contract.
  BackingFile& create(const std::string& name, u64 bytes);

  BackingFile& file(u32 id);
  const BackingFile& file(u32 id) const;
  u64 count() const noexcept { return static_cast<u64>(files_.size()); }
  u64 block_bytes() const noexcept { return block_bytes_; }

 private:
  u64 block_bytes_;
  std::vector<std::unique_ptr<BackingFile>> files_;
};

}  // namespace vmsls::mem
