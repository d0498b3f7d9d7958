#include "storage/segment_file.h"

#include <cstring>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/crc32.h"
#include "common/serde.h"
#include "storage/bit_pack.h"
#include "storage/delta_store.h"
#include "storage/dictionary.h"
#include "storage/rle.h"
#include "storage/segment.h"

namespace vstore {

namespace {

constexpr size_t kFooterSize = 24;   // dir_offset, count, dir_crc, crc, magic
constexpr size_t kDirEntrySize = 20;  // offset, size, masked crc

struct SectionEntry {
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t masked_crc = 0;
};

// Appends sections to an open file, keeping every payload 4096-aligned.
class SectionWriter {
 public:
  SectionWriter(File* file, int64_t offset) : file_(file), offset_(offset) {}

  // Appends one section; returns its directory index.
  Result<uint32_t> Add(const void* data, size_t len) {
    VSTORE_RETURN_IF_ERROR(PadToAlign());
    SectionEntry e;
    e.offset = static_cast<uint64_t>(offset_);
    e.size = len;
    e.masked_crc = MaskCrc32(Crc32(data, len));
    if (len > 0) {
      VSTORE_RETURN_IF_ERROR(file_->Append(data, len));
      offset_ += static_cast<int64_t>(len);
    }
    entries_.push_back(e);
    return static_cast<uint32_t>(entries_.size() - 1);
  }

  Result<uint32_t> Add(const std::string& s) { return Add(s.data(), s.size()); }

  // Writes the directory and footer after the last section.
  Status Finish() {
    BufWriter dir;
    for (const SectionEntry& e : entries_) {
      dir.PutU64(e.offset);
      dir.PutU64(e.size);
      dir.PutU32(e.masked_crc);
    }
    uint64_t dir_offset = static_cast<uint64_t>(offset_);
    VSTORE_RETURN_IF_ERROR(file_->Append(dir.str().data(), dir.size()));
    offset_ += static_cast<int64_t>(dir.size());

    BufWriter footer;
    footer.PutU64(dir_offset);
    footer.PutU32(static_cast<uint32_t>(entries_.size()));
    footer.PutU32(MaskCrc32(Crc32(dir.str().data(), dir.size())));
    footer.PutU32(MaskCrc32(Crc32(footer.str().data(), footer.size())));
    footer.PutU32(kCheckpointMagic);
    VSTORE_RETURN_IF_ERROR(file_->Append(footer.str().data(), footer.size()));
    offset_ += static_cast<int64_t>(footer.size());
    return Status::OK();
  }

  int64_t offset() const { return offset_; }

 private:
  Status PadToAlign() {
    int64_t rem = offset_ % kCheckpointAlign;
    if (rem == 0) return Status::OK();
    static const char kZeros[512] = {0};
    int64_t need = kCheckpointAlign - rem;
    while (need > 0) {
      int64_t n = need < 512 ? need : 512;
      VSTORE_RETURN_IF_ERROR(file_->Append(kZeros, static_cast<size_t>(n)));
      need -= n;
      offset_ += n;
    }
    return Status::OK();
  }

  File* file_;
  int64_t offset_;
  std::vector<SectionEntry> entries_;
};

// Serializes a dictionary (primary or local) as length-prefixed strings in
// code order.
std::string DictBlob(const StringDictionary& dict) {
  BufWriter w;
  int64_t n = dict.size();
  for (int64_t i = 0; i < n; ++i) {
    w.PutBytes(dict.Get(i));
  }
  return w.Take();
}

Status LoadDictBlob(std::string_view blob, int64_t count,
                    StringDictionary* dict) {
  if (dict->size() != 0) {
    return Status::Internal("checkpoint: dictionary not empty before load");
  }
  BufReader r(blob);
  for (int64_t i = 0; i < count; ++i) {
    std::string_view value;
    VSTORE_RETURN_IF_ERROR(r.GetBytes(&value));
    int64_t code = dict->GetOrInsert(value, count);
    if (code != i) {
      return Status::Internal("checkpoint: dictionary code mismatch");
    }
  }
  if (!r.done()) {
    return Status::Internal("checkpoint: trailing bytes in dictionary blob");
  }
  return Status::OK();
}

void PutStats(BufWriter* w, const SegmentStats& s) {
  w->PutI64(s.num_rows);
  w->PutI64(s.null_count);
  w->PutU8(s.has_values ? 1 : 0);
  w->PutI64(s.min_i64);
  w->PutI64(s.max_i64);
  w->PutDouble(s.min_d);
  w->PutDouble(s.max_d);
  w->PutBytes(s.min_s);
  w->PutBytes(s.max_s);
}

Status GetStats(BufReader* r, SegmentStats* s) {
  uint8_t has_values;
  std::string_view min_s, max_s;
  VSTORE_RETURN_IF_ERROR(r->GetI64(&s->num_rows));
  VSTORE_RETURN_IF_ERROR(r->GetI64(&s->null_count));
  VSTORE_RETURN_IF_ERROR(r->GetU8(&has_values));
  VSTORE_RETURN_IF_ERROR(r->GetI64(&s->min_i64));
  VSTORE_RETURN_IF_ERROR(r->GetI64(&s->max_i64));
  VSTORE_RETURN_IF_ERROR(r->GetDouble(&s->min_d));
  VSTORE_RETURN_IF_ERROR(r->GetDouble(&s->max_d));
  VSTORE_RETURN_IF_ERROR(r->GetBytes(&min_s));
  VSTORE_RETURN_IF_ERROR(r->GetBytes(&max_s));
  s->has_values = has_values != 0;
  s->min_s.assign(min_s.data(), min_s.size());
  s->max_s.assign(max_s.data(), max_s.size());
  if (s->num_rows < 0 || s->null_count < 0 || s->null_count > s->num_rows) {
    return Status::Internal("checkpoint: corrupt segment stats");
  }
  return Status::OK();
}

// A section span validated against the directory.
struct Section {
  const uint8_t* data = nullptr;
  size_t size = 0;
  std::string_view view() const {
    return std::string_view(reinterpret_cast<const char*>(data), size);
  }
};

}  // namespace

// --- Writer ---------------------------------------------------------------

Status SegmentFileWriter::Write(const std::string& path,
                                const ColumnStoreTable& table,
                                const ColumnStoreTable::CheckpointState& state,
                                uint64_t epoch, uint64_t checkpoint_lsn,
                                int64_t* file_bytes) {
  const Schema& schema = table.schema();
  const TableVersion& v = *state.snapshot;
  int num_columns = schema.num_columns();

  auto file_or = File::Create(path);
  VSTORE_RETURN_IF_ERROR(file_or.status());
  std::unique_ptr<File> file = std::move(file_or).value();

  // Header page.
  BufWriter header;
  header.PutU32(kCheckpointMagic);
  header.PutU32(kCheckpointVersion);
  header.PutU64(epoch);
  header.PutU64(checkpoint_lsn);
  header.PutU64(state.next_delta_seq);
  header.PutI64(state.next_delta_id);
  header.PutU64(v.sequence());
  header.PutU32(static_cast<uint32_t>(num_columns));
  for (int c = 0; c < num_columns; ++c) {
    header.PutU8(static_cast<uint8_t>(schema.field(c).type));
  }
  header.PutU32(MaskCrc32(Crc32(header.str().data(), header.size())));
  if (header.size() > static_cast<size_t>(kCheckpointAlign)) {
    return Status::Internal("checkpoint: header exceeds one page");
  }
  std::string page(static_cast<size_t>(kCheckpointAlign), '\0');
  std::memcpy(page.data(), header.str().data(), header.size());
  VSTORE_RETURN_IF_ERROR(file->Append(page.data(), page.size()));

  SectionWriter sections(file.get(), kCheckpointAlign);
  BufWriter meta;

  // Row groups.
  int64_t num_groups = v.num_row_groups();
  meta.PutU32(static_cast<uint32_t>(num_groups));
  for (int64_t g = 0; g < num_groups; ++g) {
    const RowGroup& group = v.row_group(g);
    meta.PutI64(group.id());
    meta.PutI64(group.num_rows());
    meta.PutU32(v.generation(g));
    for (int c = 0; c < num_columns; ++c) {
      const ColumnSegment& seg = group.column(c);
      meta.PutU8(static_cast<uint8_t>(seg.type_));
      meta.PutU8(static_cast<uint8_t>(seg.encoding_));
      meta.PutU8(static_cast<uint8_t>(seg.venc_.code_kind));
      meta.PutI64(seg.venc_.base);
      meta.PutI64(seg.venc_.scale);
      meta.PutI64(seg.venc_.int_pow10);
      meta.PutDouble(seg.venc_.dbl_pow10);
      meta.PutU32(static_cast<uint32_t>(seg.bit_width_));
      PutStats(&meta, seg.stats_);
      meta.PutI64(seg.primary_dict_size_);
      meta.PutU8(seg.archived_ ? 1 : 0);
      if (seg.encoding_ == EncodingKind::kRle) {
        meta.PutI64(seg.rle_.num_runs);
        meta.PutI64(seg.rle_.num_rows);
        meta.PutU32(static_cast<uint32_t>(seg.rle_.value_bits));
        meta.PutU32(static_cast<uint32_t>(seg.rle_.length_bits));
      }
      if (!seg.archived_) {
        if (seg.encoding_ == EncodingKind::kBitPack) {
          auto idx = sections.Add(seg.packed_data(), seg.packed_size());
          VSTORE_RETURN_IF_ERROR(idx.status());
          meta.PutU32(idx.value());
        } else {
          auto vi =
              sections.Add(seg.rle_.values_data(), seg.rle_.values_size());
          VSTORE_RETURN_IF_ERROR(vi.status());
          auto li =
              sections.Add(seg.rle_.lengths_data(), seg.rle_.lengths_size());
          VSTORE_RETURN_IF_ERROR(li.status());
          meta.PutU32(vi.value());
          meta.PutU32(li.value());
        }
      } else {
        // Archived segments persist the compressed blobs; the reader
        // rehydrates on first touch via EnsureResident.
        if (seg.encoding_ == EncodingKind::kBitPack) {
          meta.PutU64(seg.arch_packed_.original_size);
          auto idx = sections.Add(seg.arch_packed_.compressed.data(),
                                  seg.arch_packed_.compressed.size());
          VSTORE_RETURN_IF_ERROR(idx.status());
          meta.PutU32(idx.value());
        } else {
          meta.PutU64(seg.arch_rle_values_.original_size);
          auto vi = sections.Add(seg.arch_rle_values_.compressed.data(),
                                 seg.arch_rle_values_.compressed.size());
          VSTORE_RETURN_IF_ERROR(vi.status());
          meta.PutU32(vi.value());
          meta.PutU64(seg.arch_rle_lengths_.original_size);
          auto li = sections.Add(seg.arch_rle_lengths_.compressed.data(),
                                 seg.arch_rle_lengths_.compressed.size());
          VSTORE_RETURN_IF_ERROR(li.status());
          meta.PutU32(li.value());
        }
      }
      if (seg.has_null_bitmap()) {
        meta.PutU8(1);
        auto idx = sections.Add(seg.null_bitmap_data(), seg.null_bitmap_size());
        VSTORE_RETURN_IF_ERROR(idx.status());
        meta.PutU32(idx.value());
      } else {
        meta.PutU8(0);
      }
      if (seg.local_dict_ != nullptr && seg.local_dict_->size() > 0) {
        meta.PutU8(1);
        meta.PutI64(seg.local_dict_->size());
        auto idx = sections.Add(DictBlob(*seg.local_dict_));
        VSTORE_RETURN_IF_ERROR(idx.status());
        meta.PutU32(idx.value());
      } else {
        meta.PutU8(0);
      }
    }
  }

  // Delete bitmaps (one per group).
  for (int64_t g = 0; g < num_groups; ++g) {
    const DeleteBitmap& bm = v.delete_bitmap(g);
    meta.PutI64(bm.num_rows());
    auto idx =
        sections.Add(bm.bytes(), static_cast<size_t>(bm.byte_size()));
    VSTORE_RETURN_IF_ERROR(idx.status());
    meta.PutU32(idx.value());
  }

  // Delta stores: raw tree entries (rowid + encoded row bytes).
  int64_t num_stores = v.num_delta_stores();
  meta.PutU32(static_cast<uint32_t>(num_stores));
  for (int64_t s = 0; s < num_stores; ++s) {
    const DeltaStore& store = v.delta_store(s);
    meta.PutI64(store.id());
    meta.PutU8(store.closed() ? 1 : 0);
    meta.PutI64(store.num_rows());
    BufWriter rows;
    for (BPlusTree::Iterator it = store.Begin(); it.Valid(); it.Next()) {
      rows.PutU64(it.key());
      rows.PutBytes(it.value());
    }
    auto idx = sections.Add(rows.str());
    VSTORE_RETURN_IF_ERROR(idx.status());
    meta.PutU32(idx.value());
  }

  // Primary dictionaries.
  for (int c = 0; c < num_columns; ++c) {
    std::shared_ptr<const StringDictionary> dict = table.primary_dictionary(c);
    if (dict == nullptr || dict->size() == 0) {
      meta.PutU8(0);
      continue;
    }
    meta.PutU8(1);
    meta.PutI64(dict->size());
    auto idx = sections.Add(DictBlob(*dict));
    VSTORE_RETURN_IF_ERROR(idx.status());
    meta.PutU32(idx.value());
  }

  // Metadata stream is always the last section.
  auto meta_idx = sections.Add(meta.str());
  VSTORE_RETURN_IF_ERROR(meta_idx.status());
  VSTORE_RETURN_IF_ERROR(sections.Finish());
  VSTORE_RETURN_IF_ERROR(file->Sync());
  VSTORE_RETURN_IF_ERROR(file->Close());
  if (file_bytes != nullptr) *file_bytes = sections.offset();
  return Status::OK();
}

// --- Reader ---------------------------------------------------------------

Result<SegmentFileReader::Loaded> SegmentFileReader::Load(
    const std::string& path, ColumnStoreTable* table) {
  const Schema& schema = table->schema();
  int num_columns = schema.num_columns();

  auto map_or = MappedFile::Open(path);
  VSTORE_RETURN_IF_ERROR(map_or.status());
  std::shared_ptr<MappedFile> map = std::move(map_or).value();
  const uint8_t* base = map->data();
  int64_t size = map->size();
  if (size < kCheckpointAlign + static_cast<int64_t>(kFooterSize)) {
    return Status::Internal("checkpoint: file too small");
  }

  // Header.
  BufReader hdr(base, static_cast<size_t>(kCheckpointAlign));
  uint32_t magic, version, ncols;
  uint64_t epoch, ckpt_lsn, next_seq, vseq;
  int64_t next_id;
  VSTORE_RETURN_IF_ERROR(hdr.GetU32(&magic));
  VSTORE_RETURN_IF_ERROR(hdr.GetU32(&version));
  VSTORE_RETURN_IF_ERROR(hdr.GetU64(&epoch));
  VSTORE_RETURN_IF_ERROR(hdr.GetU64(&ckpt_lsn));
  VSTORE_RETURN_IF_ERROR(hdr.GetU64(&next_seq));
  VSTORE_RETURN_IF_ERROR(hdr.GetI64(&next_id));
  VSTORE_RETURN_IF_ERROR(hdr.GetU64(&vseq));
  VSTORE_RETURN_IF_ERROR(hdr.GetU32(&ncols));
  if (magic != kCheckpointMagic) {
    return Status::Internal("checkpoint: bad magic");
  }
  if (version != kCheckpointVersion) {
    return Status::Internal("checkpoint: unsupported format version");
  }
  if (ncols != static_cast<uint32_t>(num_columns)) {
    return Status::Internal("checkpoint: column count mismatch");
  }
  size_t header_len = 52 + ncols;  // fixed fields + one type byte per column
  for (uint32_t c = 0; c < ncols; ++c) {
    uint8_t type_id;
    VSTORE_RETURN_IF_ERROR(hdr.GetU8(&type_id));
    if (type_id != static_cast<uint8_t>(schema.field(static_cast<int>(c)).type)) {
      return Status::Internal("checkpoint: column type mismatch");
    }
  }
  uint32_t header_crc;
  VSTORE_RETURN_IF_ERROR(hdr.GetU32(&header_crc));
  if (UnmaskCrc32(header_crc) != Crc32(base, header_len)) {
    return Status::Internal("checkpoint: header checksum mismatch");
  }

  // Footer and directory.
  const uint8_t* footer = base + size - static_cast<int64_t>(kFooterSize);
  BufReader fr(footer, kFooterSize);
  uint64_t dir_offset;
  uint32_t section_count, dir_crc, footer_crc, footer_magic;
  VSTORE_RETURN_IF_ERROR(fr.GetU64(&dir_offset));
  VSTORE_RETURN_IF_ERROR(fr.GetU32(&section_count));
  VSTORE_RETURN_IF_ERROR(fr.GetU32(&dir_crc));
  VSTORE_RETURN_IF_ERROR(fr.GetU32(&footer_crc));
  VSTORE_RETURN_IF_ERROR(fr.GetU32(&footer_magic));
  if (footer_magic != kCheckpointMagic) {
    return Status::Internal("checkpoint: bad footer magic");
  }
  if (UnmaskCrc32(footer_crc) != Crc32(footer, 16)) {
    return Status::Internal("checkpoint: footer checksum mismatch");
  }
  uint64_t dir_size = static_cast<uint64_t>(section_count) * kDirEntrySize;
  if (section_count == 0 ||
      dir_offset < static_cast<uint64_t>(kCheckpointAlign) ||
      dir_offset + dir_size + kFooterSize != static_cast<uint64_t>(size)) {
    return Status::Internal("checkpoint: corrupt directory bounds");
  }
  const uint8_t* dir = base + dir_offset;
  if (UnmaskCrc32(dir_crc) != Crc32(dir, static_cast<size_t>(dir_size))) {
    return Status::Internal("checkpoint: directory checksum mismatch");
  }

  std::vector<Section> secs(section_count);
  {
    BufReader dr(dir, static_cast<size_t>(dir_size));
    for (uint32_t i = 0; i < section_count; ++i) {
      uint64_t off, len;
      uint32_t crc;
      VSTORE_RETURN_IF_ERROR(dr.GetU64(&off));
      VSTORE_RETURN_IF_ERROR(dr.GetU64(&len));
      VSTORE_RETURN_IF_ERROR(dr.GetU32(&crc));
      if (off < static_cast<uint64_t>(kCheckpointAlign) || off > dir_offset ||
          len > dir_offset - off) {
        return Status::Internal("checkpoint: section out of bounds");
      }
      if (UnmaskCrc32(crc) != Crc32(base + off, static_cast<size_t>(len))) {
        return Status::Internal("checkpoint: section checksum mismatch");
      }
      secs[i] = Section{base + off, static_cast<size_t>(len)};
    }
  }

  // The metadata stream is the last section; payload sections may only be
  // referenced from it by smaller indices.
  BufReader meta(secs[section_count - 1].view());
  auto get_section = [&](uint32_t* idx_out,
                         const Section** out) -> Status {
    VSTORE_RETURN_IF_ERROR(meta.GetU32(idx_out));
    if (*idx_out >= section_count - 1) {  // the last section is the metadata
      return Status::Internal("checkpoint: bad section reference");
    }
    *out = &secs[*idx_out];
    return Status::OK();
  };

  Loaded loaded;
  loaded.epoch = epoch;
  loaded.checkpoint_lsn = ckpt_lsn;
  loaded.file_bytes = size;
  ColumnStoreTable::RecoveredState& state = loaded.state;
  state.next_delta_seq = next_seq;
  state.next_delta_id = next_id;
  state.version_sequence = vseq;

  uint32_t num_groups;
  VSTORE_RETURN_IF_ERROR(meta.GetU32(&num_groups));

  // Stage per-segment dictionary demands: primary dictionaries are loaded
  // after the group metadata is parsed (their sections come later in the
  // meta stream), so segment wiring happens in two passes.
  struct PendingSegment {
    ColumnSegment* seg;
    int column;
  };
  std::vector<PendingSegment> pending;

  for (uint32_t g = 0; g < num_groups; ++g) {
    int64_t group_id, group_rows;
    uint32_t generation;
    VSTORE_RETURN_IF_ERROR(meta.GetI64(&group_id));
    VSTORE_RETURN_IF_ERROR(meta.GetI64(&group_rows));
    VSTORE_RETURN_IF_ERROR(meta.GetU32(&generation));
    if (group_rows < 0 || generation > kRowIdGenerationMask) {
      return Status::Internal("checkpoint: corrupt row group header");
    }
    auto group = std::shared_ptr<RowGroup>(new RowGroup());
    group->id_ = group_id;
    group->num_rows_ = group_rows;
    for (int c = 0; c < num_columns; ++c) {
      uint8_t type_id, encoding_id, code_kind_id, archived;
      VSTORE_RETURN_IF_ERROR(meta.GetU8(&type_id));
      VSTORE_RETURN_IF_ERROR(meta.GetU8(&encoding_id));
      VSTORE_RETURN_IF_ERROR(meta.GetU8(&code_kind_id));
      if (type_id != static_cast<uint8_t>(schema.field(c).type)) {
        return Status::Internal("checkpoint: segment type mismatch");
      }
      if (encoding_id > static_cast<uint8_t>(EncodingKind::kRle) ||
          code_kind_id > static_cast<uint8_t>(CodeKind::kDictionary)) {
        return Status::Internal("checkpoint: corrupt segment encoding");
      }
      auto seg = std::unique_ptr<ColumnSegment>(new ColumnSegment());
      seg->type_ = static_cast<DataType>(type_id);
      seg->encoding_ = static_cast<EncodingKind>(encoding_id);
      seg->venc_.code_kind = static_cast<CodeKind>(code_kind_id);
      int64_t scale;
      uint32_t bit_width;
      VSTORE_RETURN_IF_ERROR(meta.GetI64(&seg->venc_.base));
      VSTORE_RETURN_IF_ERROR(meta.GetI64(&scale));
      VSTORE_RETURN_IF_ERROR(meta.GetI64(&seg->venc_.int_pow10));
      VSTORE_RETURN_IF_ERROR(meta.GetDouble(&seg->venc_.dbl_pow10));
      VSTORE_RETURN_IF_ERROR(meta.GetU32(&bit_width));
      seg->venc_.scale = static_cast<int>(scale);
      if (bit_width > 64) {
        return Status::Internal("checkpoint: corrupt bit width");
      }
      seg->bit_width_ = static_cast<int>(bit_width);
      VSTORE_RETURN_IF_ERROR(GetStats(&meta, &seg->stats_));
      if (seg->stats_.num_rows != group_rows) {
        return Status::Internal("checkpoint: segment row count mismatch");
      }
      VSTORE_RETURN_IF_ERROR(meta.GetI64(&seg->primary_dict_size_));
      if (seg->primary_dict_size_ < 0) {
        return Status::Internal("checkpoint: corrupt primary dict boundary");
      }
      VSTORE_RETURN_IF_ERROR(meta.GetU8(&archived));
      seg->archived_ = archived != 0;
      if (seg->encoding_ == EncodingKind::kRle) {
        int64_t value_bits, length_bits;
        uint32_t vb, lb;
        VSTORE_RETURN_IF_ERROR(meta.GetI64(&seg->rle_.num_runs));
        VSTORE_RETURN_IF_ERROR(meta.GetI64(&seg->rle_.num_rows));
        VSTORE_RETURN_IF_ERROR(meta.GetU32(&vb));
        VSTORE_RETURN_IF_ERROR(meta.GetU32(&lb));
        value_bits = vb;
        length_bits = lb;
        if (seg->rle_.num_runs < 0 || seg->rle_.num_runs > group_rows ||
            seg->rle_.num_rows != group_rows || value_bits > 64 ||
            length_bits > 64) {
          return Status::Internal("checkpoint: corrupt rle header");
        }
        seg->rle_.value_bits = static_cast<int>(value_bits);
        seg->rle_.length_bits = static_cast<int>(length_bits);
      }
      if (!seg->archived_) {
        if (seg->encoding_ == EncodingKind::kBitPack) {
          uint32_t idx;
          const Section* sec;
          VSTORE_RETURN_IF_ERROR(get_section(&idx, &sec));
          // The packed span must cover every random 8-byte read the
          // decoder can issue for num_rows codes.
          if (static_cast<int64_t>(sec->size) <
              BitPacker::PackedBytes(group_rows, seg->bit_width_)) {
            return Status::Internal("checkpoint: packed section too small");
          }
          seg->packed_extern_ = sec->data;
          seg->packed_extern_size_ = sec->size;
        } else {
          uint32_t vi, li;
          const Section* vsec;
          const Section* lsec;
          VSTORE_RETURN_IF_ERROR(get_section(&vi, &vsec));
          VSTORE_RETURN_IF_ERROR(get_section(&li, &lsec));
          if (static_cast<int64_t>(vsec->size) <
                  BitPacker::PackedBytes(seg->rle_.num_runs,
                                         seg->rle_.value_bits) ||
              static_cast<int64_t>(lsec->size) <
                  BitPacker::PackedBytes(seg->rle_.num_runs,
                                         seg->rle_.length_bits)) {
            return Status::Internal("checkpoint: rle section too small");
          }
          seg->rle_.values_extern = vsec->data;
          seg->rle_.values_extern_size = vsec->size;
          seg->rle_.lengths_extern = lsec->data;
          seg->rle_.lengths_extern_size = lsec->size;
          // Validate the run lengths (each >= 1, summing exactly to the
          // row count) before building the index, so a corrupt file can
          // never produce a non-monotonic or overflowing run index.
          uint64_t total = 0;
          for (int64_t r = 0; r < seg->rle_.num_runs; ++r) {
            uint64_t len =
                BitPacker::Get(lsec->data, seg->rle_.length_bits, r);
            if (len == 0 ||
                len > static_cast<uint64_t>(group_rows) - total) {
              return Status::Internal("checkpoint: corrupt rle run lengths");
            }
            total += len;
          }
          if (total != static_cast<uint64_t>(group_rows)) {
            return Status::Internal("checkpoint: corrupt rle run lengths");
          }
          RleCodec::BuildIndex(&seg->rle_);
        }
        seg->resident_.store(true, std::memory_order_release);
      } else {
        // Archived: copy the (small) compressed blobs; rehydration
        // re-validates sizes via the LZSS decoder's bounds checks.
        auto load_blob = [&](ColumnSegment::Blob* blob) -> Status {
          uint64_t original;
          uint32_t idx;
          const Section* sec;
          VSTORE_RETURN_IF_ERROR(meta.GetU64(&original));
          VSTORE_RETURN_IF_ERROR(get_section(&idx, &sec));
          blob->original_size = static_cast<size_t>(original);
          blob->compressed.assign(sec->data, sec->data + sec->size);
          return Status::OK();
        };
        if (seg->encoding_ == EncodingKind::kBitPack) {
          VSTORE_RETURN_IF_ERROR(load_blob(&seg->arch_packed_));
        } else {
          VSTORE_RETURN_IF_ERROR(load_blob(&seg->arch_rle_values_));
          VSTORE_RETURN_IF_ERROR(load_blob(&seg->arch_rle_lengths_));
        }
        seg->resident_.store(false, std::memory_order_release);
      }
      uint8_t has_nulls;
      VSTORE_RETURN_IF_ERROR(meta.GetU8(&has_nulls));
      if (has_nulls != 0) {
        uint32_t idx;
        const Section* sec;
        VSTORE_RETURN_IF_ERROR(get_section(&idx, &sec));
        if (static_cast<int64_t>(sec->size) <
            bit_util::BytesForBits(group_rows)) {
          return Status::Internal("checkpoint: null bitmap too small");
        }
        seg->null_bitmap_extern_ = sec->data;
        seg->null_bitmap_extern_size_ = sec->size;
      }
      uint8_t has_local;
      VSTORE_RETURN_IF_ERROR(meta.GetU8(&has_local));
      if (has_local != 0) {
        int64_t count;
        uint32_t idx;
        const Section* sec;
        VSTORE_RETURN_IF_ERROR(meta.GetI64(&count));
        VSTORE_RETURN_IF_ERROR(get_section(&idx, &sec));
        if (count < 0) {
          return Status::Internal("checkpoint: corrupt local dictionary");
        }
        seg->local_dict_ = std::make_unique<StringDictionary>();
        VSTORE_RETURN_IF_ERROR(
            LoadDictBlob(sec->view(), count, seg->local_dict_.get()));
      }
      seg->keepalive_ = map;
      pending.push_back(PendingSegment{seg.get(), c});
      group->columns_.push_back(std::move(seg));
    }
    state.row_groups.push_back(std::move(group));
    state.generations.push_back(generation);
  }

  // Delete bitmaps.
  for (uint32_t g = 0; g < num_groups; ++g) {
    int64_t rows;
    uint32_t idx;
    const Section* sec;
    VSTORE_RETURN_IF_ERROR(meta.GetI64(&rows));
    VSTORE_RETURN_IF_ERROR(get_section(&idx, &sec));
    if (rows != state.row_groups[g]->num_rows()) {
      return Status::Internal("checkpoint: delete bitmap size mismatch");
    }
    state.delete_bitmaps.push_back(std::make_shared<DeleteBitmap>(
        DeleteBitmap::FromBytes(rows, sec->data, sec->size)));
  }

  // Delta stores.
  uint32_t num_stores;
  VSTORE_RETURN_IF_ERROR(meta.GetU32(&num_stores));
  for (uint32_t s = 0; s < num_stores; ++s) {
    int64_t store_id, num_rows;
    uint8_t closed;
    uint32_t idx;
    const Section* sec;
    VSTORE_RETURN_IF_ERROR(meta.GetI64(&store_id));
    VSTORE_RETURN_IF_ERROR(meta.GetU8(&closed));
    VSTORE_RETURN_IF_ERROR(meta.GetI64(&num_rows));
    VSTORE_RETURN_IF_ERROR(get_section(&idx, &sec));
    auto store = std::make_shared<DeltaStore>(&table->schema(), store_id);
    BufReader rows(sec->view());
    std::vector<Value> row;
    for (int64_t i = 0; i < num_rows; ++i) {
      uint64_t rowid;
      std::string_view bytes;
      VSTORE_RETURN_IF_ERROR(rows.GetU64(&rowid));
      VSTORE_RETURN_IF_ERROR(rows.GetBytes(&bytes));
      VSTORE_RETURN_IF_ERROR(DecodeRow(table->schema(), bytes, &row));
      VSTORE_RETURN_IF_ERROR(store->Insert(rowid, row));
    }
    if (!rows.done()) {
      return Status::Internal("checkpoint: trailing bytes in delta store");
    }
    if (closed != 0) store->Close();
    state.delta_stores.push_back(std::move(store));
  }

  // Primary dictionaries, straight into the (empty) table dictionaries.
  for (int c = 0; c < num_columns; ++c) {
    uint8_t present;
    VSTORE_RETURN_IF_ERROR(meta.GetU8(&present));
    if (present == 0) continue;
    int64_t count;
    uint32_t idx;
    const Section* sec;
    VSTORE_RETURN_IF_ERROR(meta.GetI64(&count));
    VSTORE_RETURN_IF_ERROR(get_section(&idx, &sec));
    std::shared_ptr<const StringDictionary> dict = table->primary_dictionary(c);
    if (dict == nullptr || count < 0) {
      return Status::Internal("checkpoint: primary dictionary mismatch");
    }
    VSTORE_RETURN_IF_ERROR(LoadDictBlob(
        sec->view(), count, const_cast<StringDictionary*>(dict.get())));
  }
  if (!meta.done()) {
    return Status::Internal("checkpoint: trailing metadata bytes");
  }

  // Wire the shared dictionaries into the loaded segments and sanity-check
  // the primary-resolved code range.
  for (const PendingSegment& p : pending) {
    std::shared_ptr<const StringDictionary> dict =
        table->primary_dictionary(p.column);
    if (p.seg->venc_.code_kind == CodeKind::kDictionary) {
      // primary_dict_size_ is the code-space boundary where local codes
      // begin (the primary dictionary's capacity at encode time), so it
      // normally exceeds the entry count — but the entry count must never
      // exceed the boundary, or primary and local code ranges would
      // overlap and codes would resolve against the wrong dictionary.
      if (dict == nullptr || dict->size() > p.seg->primary_dict_size_) {
        return Status::Internal("checkpoint: segment dictionary mismatch");
      }
      p.seg->primary_dict_ = dict;
    }
  }
  return loaded;
}

}  // namespace vstore
