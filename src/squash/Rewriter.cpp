//===- squash/Rewriter.cpp - Squashed image construction ------------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "squash/Rewriter.h"

#include "support/Checksum.h"

#include <algorithm>
#include <chrono>

using namespace squash;
using namespace vea;

/// Branch-format displacement from instruction address \p From to
/// \p Target; must match the runtime decompressor's arithmetic.
static int32_t rtDisp(uint32_t From, uint32_t Target) {
  return (static_cast<int32_t>(Target) - static_cast<int32_t>(From) - 4) / 4;
}

void squash::expandStoredInst(const RuntimeLayout &L, const MInst &I,
                              uint32_t WriteAddr,
                              std::vector<uint32_t> &Out) {
  if (I.Op == Opcode::Bsrx) {
    // Expand to: bsr ra, CreateStub(ra) ; br r31, <stored disp>.
    unsigned Ra = I.ra();
    MInst Call = makeBranch(Opcode::Bsr, Ra,
                            rtDisp(WriteAddr, L.createStubEntry(Ra)));
    MInst Jump = makeBranch(Opcode::Br, RegZero, I.disp21());
    Out.push_back(encode(Call));
    Out.push_back(encode(Jump));
    return;
  }
  Out.push_back(encode(I));
}

Status squash::relocateRegionWords(std::vector<uint32_t> &Words,
                                   uint32_t FromBase, uint32_t ToBase) {
  if (FromBase == ToBase)
    return Status::success();
  const int64_t SlideWords =
      (static_cast<int64_t>(ToBase) - static_cast<int64_t>(FromBase)) / 4;
  const uint32_t RegionEnd =
      FromBase + 4 * static_cast<uint32_t>(Words.size());
  for (size_t I = 0; I != Words.size(); ++I) {
    MInst D = decode(Words[I]);
    if (!isBranchFormat(D.Op))
      continue;
    // Target as lowered at the canonical base. Branches that stay inside
    // the region slide with it; branches that escape it must compensate.
    uint32_t A = FromBase + 4 * static_cast<uint32_t>(I);
    int64_t Target = static_cast<int64_t>(A) + 4 + 4ll * D.disp21();
    if (Target >= FromBase && Target < RegionEnd)
      continue;
    int64_t NewDisp = static_cast<int64_t>(D.disp21()) - SlideWords;
    if (NewDisp < -(1 << 20) || NewDisp >= (1 << 20))
      return Status::error(StatusCode::LayoutError,
                           "relocate: branch displacement out of range for "
                           "cache slot");
    Words[I] = encode(makeBranch(D.Op, D.ra(), static_cast<int32_t>(NewDisp)));
  }
  return Status::success();
}

uint32_t squash::expandedWordsCrc(const std::vector<uint32_t> &Words) {
  return crc32Words(Words.data(), Words.size());
}

namespace {

class Rewriter {
public:
  Rewriter(const Program &Prog, const Cfg &G, const Partition &Part,
           const std::vector<uint8_t> &Safe, const Options &Opts,
           CodecPlan Plan = CodecPlan(),
           std::vector<unsigned> FuncOrder = {})
      : Prog(Prog), G(G), Part(Part), Safe(Safe), Opts(Opts),
        Plan(std::move(Plan)), FuncOrder(std::move(FuncOrder)),
        HadExplicitOrder(!this->FuncOrder.empty()) {}

  Expected<SquashedProgram> run();
  /// Lowering phases only; returns the stored-region corpus.
  Expected<std::vector<std::vector<MInst>>> preview();

private:
  /// Block id of the fallthrough successor, or -1.
  int32_t ftOf(unsigned B) const {
    if (!G.block(B).canFallThrough())
      return -1;
    const BlockRef &R = G.ref(B);
    if (R.BlockIdx + 1 >= Prog.Functions[R.FuncIdx].Blocks.size())
      return -1;
    return static_cast<int32_t>(B + 1);
  }

  /// True if a region block needs an explicit branch appended for its
  /// fallthrough edge (target not adjacent in the region layout).
  bool regionNeedsBr(unsigned B) const {
    int32_t Ft = ftOf(B);
    return Ft >= 0 && Part.RegionOf[Ft] != Part.RegionOf[B];
  }
  /// Same for a never-compressed block (targets that got compressed moved
  /// away; never-compressed neighbours stay adjacent).
  bool ncNeedsBr(unsigned B) const {
    int32_t Ft = ftOf(B);
    return Ft >= 0 && Part.RegionOf[Ft] >= 0;
  }

  /// True if call instruction \p I needs restore-stub treatment (becomes
  /// Bsrx). Every call out of compressed code does, unless the callee is
  /// buffer-safe (Section 6.1): even a callee in the *same* region may
  /// reach other regions and return with the buffer holding someone else,
  /// so only buffer-safety can justify a plain call.
  bool isStubCall(const Inst &I, int32_t /*Self*/) const {
    if (I.Op != Opcode::Bsr || I.Reloc != RelocKind::BranchDisp)
      return false;
    unsigned Callee = G.idOf(I.Symbol);
    if (Opts.BufferSafeCalls && Safe[G.functionOf(Callee)])
      return false; // Section 6.1.
    return true;
  }

  /// Final address external code should use to reach block \p B.
  Expected<uint32_t> redirect(unsigned B) const {
    if (Part.RegionOf[B] < 0)
      return NCAddr[B];
    int32_t S = StubIndexOf[B];
    if (S < 0)
      return Status::error(StatusCode::LayoutError,
                           "rewriter: reference to compressed block '" +
                               G.block(B).Label + "' without an entry stub");
    return StubAddrs[S];
  }

  static Expected<int32_t> brDisp(uint32_t From, uint32_t Target) {
    int64_t D = (static_cast<int64_t>(Target) -
                 (static_cast<int64_t>(From) + 4)) /
                4;
    if ((static_cast<int64_t>(Target) - (static_cast<int64_t>(From) + 4)) %
            4 !=
        0)
      return Status::error(StatusCode::LayoutError,
                           "rewriter: misaligned branch target");
    if (D < -(1 << 20) || D >= (1 << 20))
      return Status::error(StatusCode::LayoutError,
                           "rewriter: branch displacement out of range");
    return static_cast<int32_t>(D);
  }

  uint32_t bufAddr(uint32_t ExpOff) const {
    return L.BufferBase + 4 + 4 * ExpOff;
  }

  void computeEntries();
  Status computeExpandedOffsets();
  Status layout();
  Status lowerRegions();
  Status emit();

  const Program &Prog;
  const Cfg &G;
  const Partition &Part;
  const std::vector<uint8_t> &Safe;
  const Options &Opts;
  CodecPlan Plan;
  std::vector<unsigned> FuncOrder; ///< Placement order; empty = program.
  /// True when the caller supplied a placement order. layout() rewrites an
  /// empty FuncOrder to the identity, so this is latched at construction.
  bool HadExplicitOrder = false;

  SquashedProgram Out;
  RuntimeLayout L;

  /// Never-compressed block ids in emission order: functions in FuncOrder
  /// (program order when empty), blocks in function order. Built by
  /// layout(), replayed verbatim by emit() — the two walks must match or
  /// NCAddr lies. Under the identity order this equals the id-order walk
  /// the rewriter always did, so the image is byte-identical.
  std::vector<unsigned> EmitOrder;

  std::vector<int32_t> ExpOffset;   ///< Per block: offset in region layout.
  std::vector<uint32_t> NCAddr;     ///< Per block: never-compressed address.
  std::vector<int32_t> StubIndexOf; ///< Per block: entry stub index or -1.
  std::vector<unsigned> StubBlocks; ///< Stub index -> block id.
  std::vector<int32_t> StubRegion;  ///< Stub index -> region.
  std::vector<uint32_t> StubAddrs;  ///< Stub index -> address.
  std::vector<uint32_t> ExpandedWords; ///< Per region.
  std::vector<std::vector<MInst>> Stored; ///< Per region: stored insts.
  std::unordered_map<std::string, uint32_t> Syms;
  uint32_t NCWords = 0;
  uint32_t DataBase = 0;
};

} // namespace

void Rewriter::computeEntries() {
  StubIndexOf.assign(G.numBlocks(), -1);
  // One analysis for all regions: entry queries are per-region work, the
  // call-graph reversal is done once.
  RegionEntryAnalysis Entry(G);
  for (size_t R = 0; R != Part.Regions.size(); ++R) {
    std::vector<unsigned> Entries = regionEntryPoints(
        Entry, Part.Regions[R].Blocks, Part.RegionOf, static_cast<int32_t>(R));
    for (unsigned E : Entries) {
      StubIndexOf[E] = static_cast<int32_t>(StubBlocks.size());
      StubBlocks.push_back(E);
      StubRegion.push_back(static_cast<int32_t>(R));
    }
  }
}

Status Rewriter::computeExpandedOffsets() {
  ExpOffset.assign(G.numBlocks(), -1);
  ExpandedWords.assign(Part.Regions.size(), 0);
  for (size_t R = 0; R != Part.Regions.size(); ++R) {
    uint32_t Cur = 0;
    for (unsigned B : Part.Regions[R].Blocks) {
      ExpOffset[B] = static_cast<int32_t>(Cur);
      for (const auto &I : G.block(B).Insts)
        Cur += isStubCall(I, static_cast<int32_t>(R)) ? 2 : 1;
      if (regionNeedsBr(B))
        ++Cur;
    }
    ExpandedWords[R] = Cur;
    if (Cur + 1 > 0xFFFF)
      return Status::error(
          StatusCode::LayoutError,
          "rewriter: region too large for 16-bit tag offsets");
  }
  return Status::success();
}

Status Rewriter::layout() {
  uint32_t Cursor = DefaultBase;

  // Never-compressed code, functions in placement order, blocks in
  // function order. Whole-function placement keeps every in-function
  // fallthrough chain intact (compressed blocks were never adjacent to
  // their NC fallthrough anyway — ncNeedsBr covers those), so the
  // reconnection-branch rule is order-independent.
  if (FuncOrder.empty()) {
    FuncOrder.resize(G.numFunctions());
    for (unsigned F = 0; F != G.numFunctions(); ++F)
      FuncOrder[F] = F;
  }
  std::vector<std::vector<unsigned>> FuncBlocks(G.numFunctions());
  for (unsigned B = 0; B != G.numBlocks(); ++B)
    FuncBlocks[G.functionOf(B)].push_back(B);
  EmitOrder.clear();
  for (unsigned F : FuncOrder)
    for (unsigned B : FuncBlocks[F])
      if (Part.RegionOf[B] < 0)
        EmitOrder.push_back(B);

  NCAddr.assign(G.numBlocks(), 0);
  for (unsigned B : EmitOrder) {
    NCAddr[B] = Cursor;
    uint32_t Words = G.block(B).size() + (ncNeedsBr(B) ? 1 : 0);
    Cursor += 4 * Words;
    NCWords += Words;
  }

  // Entry stubs (2 words each).
  StubAddrs.resize(StubBlocks.size());
  for (size_t S = 0; S != StubBlocks.size(); ++S) {
    StubAddrs[S] = Cursor;
    Cursor += 8;
  }

  // Decompressor region.
  if (Opts.DecompressorCodeWords < RuntimeLayout::NumEntryPoints)
    return Status::error(StatusCode::InvalidArgument,
                         "rewriter: decompressor region smaller than its " +
                             std::to_string(RuntimeLayout::NumEntryPoints) +
                             " entry points");
  L.DecompBase = Cursor;
  Cursor += 4 * Opts.DecompressorCodeWords;
  L.DecompEnd = Cursor;

  // Function offset table.
  L.OffsetTableBase = Cursor;
  if (Part.Regions.size() > 0xFFFF)
    return Status::error(StatusCode::LayoutError,
                         "rewriter: too many regions for 16-bit tags");
  Cursor += 4 * static_cast<uint32_t>(Part.Regions.size());

  // Restore-stub area (4 words per slot).
  L.StubAreaBase = Cursor;
  L.StubSlots = Opts.MaxRestoreStubs;
  Cursor += 4 * RuntimeLayout::StubSlotWords * L.StubSlots;

  // Decode-cache slot map: one resident-region word per slot.
  if (Opts.CacheSlots == 0)
    return Status::error(StatusCode::InvalidArgument,
                         "rewriter: decode cache needs at least one slot");
  L.CacheSlots = Opts.CacheSlots;
  L.SlotMapBase = Cursor;
  Cursor += 4 * L.CacheSlots;

  // Runtime buffer: per cache slot, a jump slot + the largest decompressed
  // region. One slot reproduces the paper's single shared buffer.
  uint32_t MaxExpanded = 0;
  for (uint32_t W : ExpandedWords)
    MaxExpanded = std::max(MaxExpanded, W);
  L.BufferBase = Cursor;
  L.SlotWords = 1 + MaxExpanded;
  L.BufferWords = L.CacheSlots * L.SlotWords;
  Cursor += 4 * L.BufferWords;

  // Data objects.
  DataBase = Cursor;
  L.DataBase = Cursor;
  for (const auto &D : Prog.Data) {
    uint32_t Align = D.Align ? D.Align : 4;
    Cursor = (Cursor + Align - 1) / Align * Align;
    Syms[D.Name] = Cursor;
    Cursor += static_cast<uint32_t>(D.Bytes.size());
  }

  // Compressed blob (placed last so its size does not perturb any address
  // that the compressed instructions themselves encode).
  Cursor = (Cursor + 3) & ~3u;
  L.BlobBase = Cursor;

  // Final symbol map for code.
  for (unsigned B = 0; B != G.numBlocks(); ++B) {
    if (Part.RegionOf[B] < 0)
      Syms[G.block(B).Label] = NCAddr[B];
    else if (StubIndexOf[B] >= 0)
      Syms[G.block(B).Label] = StubAddrs[StubIndexOf[B]];
    // Compressed blocks without stubs are unreferenced from outside; any
    // attempted reference fails in encodeInstOrError, catching partition
    // bugs.
  }
  return Status::success();
}

Status Rewriter::lowerRegions() {
  Stored.resize(Part.Regions.size());
  Out.Regions.resize(Part.Regions.size());
  Out.RegionBlocks.resize(Part.Regions.size());
  for (size_t R = 0; R != Part.Regions.size(); ++R) {
    int32_t Self = static_cast<int32_t>(R);
    auto &Seq = Stored[R];
    uint32_t Cur = 0;
    for (unsigned B : Part.Regions[R].Blocks)
      Out.RegionBlocks[R].push_back(
          {B, static_cast<uint32_t>(G.block(B).Insts.size()),
           static_cast<uint8_t>(StubIndexOf[B] >= 0)});
    for (unsigned B : Part.Regions[R].Blocks) {
      for (const auto &I : G.block(B).Insts) {
        uint32_t A = bufAddr(Cur);
        if (isStubCall(I, Self)) {
          // Stored as Bsrx; the decompressor expands it to
          //   bsr ra, CreateStub ; br r31, <callee>
          // with the stored displacement belonging to the BR (second
          // word, at A + 4).
          unsigned Callee = G.idOf(I.Symbol);
          Expected<uint32_t> Target = redirect(Callee);
          if (!Target)
            return Target.status();
          Expected<int32_t> D = brDisp(A + 4, *Target);
          if (!D)
            return D.status();
          Seq.push_back(makeBranch(Opcode::Bsrx, I.Ra, *D));
          ++Out.Regions[R].ExternalCalls;
          Cur += 2;
          continue;
        }
        if (I.Reloc == RelocKind::BranchDisp) {
          unsigned T = G.idOf(I.Symbol);
          uint32_t Target;
          if (I.Op != Opcode::Bsr && Part.RegionOf[T] == Self) {
            // Intra-region branches stay inside the buffer. (Calls never
            // take this path: see isStubCall.)
            Target = bufAddr(static_cast<uint32_t>(ExpOffset[T]));
          } else {
            Expected<uint32_t> Red = redirect(T);
            if (!Red)
              return Red.status();
            Target = *Red;
            if (I.Op == Opcode::Bsr)
              ++Out.Regions[R].BufferSafeCalls;
          }
          Expected<int32_t> D = brDisp(A, Target);
          if (!D)
            return D.status();
          Seq.push_back(makeBranch(I.Op, I.Ra, *D));
          Cur += 1;
          continue;
        }
        // Everything else (including hi16/lo16 address materialization,
        // which resolves to absolute values) lowers position-independently.
        Expected<uint32_t> Word = encodeInstOrError(I, A, Syms);
        if (!Word)
          return Word.status();
        Seq.push_back(decode(*Word));
        Cur += 1;
      }
      if (regionNeedsBr(B)) {
        int32_t Ft = ftOf(B);
        uint32_t A = bufAddr(Cur);
        uint32_t Target;
        if (Part.RegionOf[Ft] == Self) {
          Target = bufAddr(static_cast<uint32_t>(ExpOffset[Ft]));
        } else {
          Expected<uint32_t> Red = redirect(static_cast<unsigned>(Ft));
          if (!Red)
            return Red.status();
          Target = *Red;
        }
        Expected<int32_t> D = brDisp(A, Target);
        if (!D)
          return D.status();
        Seq.push_back(makeBranch(Opcode::Br, RegZero, *D));
        Cur += 1;
      }
    }
    Out.Regions[R].ExpandedWords = ExpandedWords[R];
    Out.Regions[R].StoredInstructions = static_cast<uint32_t>(Seq.size());
  }
  return Status::success();
}

Status Rewriter::emit() {
  // Per-region coder assignment. An empty plan is the legacy all-Huffman
  // encode and reproduces the pre-plan blob byte-for-byte.
  const size_t NumRegions = Part.Regions.size();
  std::vector<CodecKind> Kind(NumRegions, CodecKind::Huffman);
  if (!Plan.RegionCodec.empty()) {
    if (Plan.RegionCodec.size() != NumRegions)
      return Status::error(StatusCode::InvalidArgument,
                           "rewriter: codec plan does not match the region "
                           "partition");
    Kind = Plan.RegionCodec;
  }
  bool UseHuff = false, UsePattern = false;
  for (CodecKind K : Kind) {
    UseHuff |= K == CodecKind::Huffman;
    UsePattern |= K == CodecKind::Pattern;
  }
  if (UsePattern && !Plan.Pattern.present())
    return Status::error(StatusCode::InvalidArgument,
                         "rewriter: plan selects the pattern codec but "
                         "carries no pattern tables");
  for (size_t R = 0; R != NumRegions; ++R)
    Out.Regions[R].Codec = static_cast<uint8_t>(Kind[R]);

  // The Huffman codes are built over exactly the regions they will encode
  // so reassigned regions cannot skew the streams' distributions.
  if (UseHuff) {
    if (UsePattern) {
      std::vector<std::vector<MInst>> HuffCorpus;
      for (size_t R = 0; R != NumRegions; ++R)
        if (Kind[R] == CodecKind::Huffman)
          HuffCorpus.push_back(Stored[R]);
      Out.Codecs = StreamCodecs::build(HuffCorpus);
    } else {
      Out.Codecs = StreamCodecs::build(Stored);
    }
  }

  // Side tables first, in fixed codec order; their measured bit spans feed
  // the footprint so every table is charged to the compressed size.
  vea::BitWriter W;
  FootprintBreakdown &F = Out.Footprint;
  if (UseHuff) {
    Out.Codecs.serializeTables(W);
    F.HuffmanTableBits = W.bitSize();
  }
  if (UsePattern) {
    const uint64_t Before = W.bitSize();
    Plan.Pattern.serializeTables(W);
    F.PatternTableBits = W.bitSize() - Before;
  }
  const uint64_t TableBits = W.bitSize();

  auto EncodeStart = std::chrono::steady_clock::now();
  for (size_t R = 0; R != NumRegions; ++R) {
    Out.Regions[R].BitOffset = static_cast<uint32_t>(W.bitSize());
    Status St = Kind[R] == CodecKind::Pattern
                    ? Plan.Pattern.encodeRegion(Stored[R], W)
                    : Out.Codecs.encodeRegion(Stored[R], W);
    if (!St.ok())
      return St.context("rewriter: region " + std::to_string(R));
  }
  F.PayloadBits = W.bitSize() - TableBits;
  Out.Pattern = std::move(Plan.Pattern);
  Out.EncodeSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    EncodeStart)
          .count();
  std::vector<uint8_t> Blob = W.takeBytes();
  L.BlobBytes = static_cast<uint32_t>(Blob.size());

  Image &Img = Out.Img;
  Img.Base = DefaultBase;
  Img.Bytes.assign(L.BlobBase + L.BlobBytes - DefaultBase, 0);
  Img.CodeBytes = DataBase - DefaultBase;
  Img.Symbols = Syms;

  // Never-compressed code, in the same emission order layout() priced.
  for (unsigned B : EmitOrder) {
    uint32_t PC = NCAddr[B];
    for (const auto &I : G.block(B).Insts) {
      Expected<uint32_t> Word = encodeInstOrError(I, PC, Syms);
      if (!Word)
        return Status(Word.status())
            .context("rewriter: block '" + G.block(B).Label + "'");
      Img.setWord(PC, *Word);
      PC += 4;
    }
    if (ncNeedsBr(B)) {
      int32_t Ft = ftOf(B);
      Expected<uint32_t> Red = redirect(static_cast<unsigned>(Ft));
      if (!Red)
        return Red.status();
      Expected<int32_t> D = brDisp(PC, *Red);
      if (!D)
        return D.status();
      Img.setWord(PC, encode(makeBranch(Opcode::Br, RegZero, *D)));
    }
  }

  // Entry stubs: bsr r25, Decompress(r25) ; tag.
  Out.RegionEntryStubs.resize(Part.Regions.size());
  for (size_t S = 0; S != StubBlocks.size(); ++S) {
    uint32_t Addr = StubAddrs[S];
    unsigned Block = StubBlocks[S];
    Expected<int32_t> D = brDisp(Addr, L.decompressEntry(25));
    if (!D)
      return D.status();
    Img.setWord(Addr, encode(makeBranch(Opcode::Bsr, 25, *D)));
    uint32_t Tag = (static_cast<uint32_t>(StubRegion[S]) << 16) |
                   (1 + static_cast<uint32_t>(ExpOffset[Block]));
    Img.setWord(Addr + 4, Tag);
    Out.StubOf[G.block(Block).Label] = Addr;
    Out.ValidEntryTags.insert(Tag);
    Out.RegionEntryStubs[StubRegion[S]].push_back({Addr, Tag});
  }

  // Decode-cache slot map: every slot starts empty.
  for (uint32_t S = 0; S != L.CacheSlots; ++S)
    Img.setWord(L.SlotMapBase + 4 * S, RuntimeLayout::SlotMapEmpty);

  // The decompressor region is reserved, never fetched (trap dispatch);
  // fill with the illegal sentinel word so stray jumps fault loudly.
  for (uint32_t A = L.DecompBase; A != L.DecompEnd; A += 4)
    Img.setWord(A, 0);

  // Function offset table: absolute bit offsets into the blob.
  for (size_t R = 0; R != Part.Regions.size(); ++R)
    Img.setWord(L.OffsetTableBase + 4 * static_cast<uint32_t>(R),
                Out.Regions[R].BitOffset);

  // Data.
  for (const auto &D : Prog.Data) {
    uint32_t Addr = Syms.at(D.Name);
    std::copy(D.Bytes.begin(), D.Bytes.end(),
              Img.Bytes.begin() + (Addr - Img.Base));
    for (const auto &SW : D.SymWords) {
      auto It = Syms.find(SW.Symbol);
      if (It == Syms.end())
        return Status::error(StatusCode::LayoutError,
                             "rewriter: unresolved data symbol '" +
                                 SW.Symbol + "'");
      Img.setWord(Addr + SW.Offset,
                  It->second + static_cast<uint32_t>(SW.Addend));
    }
  }

  // Compressed blob.
  std::copy(Blob.begin(), Blob.end(),
            Img.Bytes.begin() + (L.BlobBase - Img.Base));

  Img.EntryPC = Syms.at(Prog.EntryFunction);

  // Per-region entry-stub counts.
  for (size_t S = 0; S != StubBlocks.size(); ++S)
    ++Out.Regions[StubRegion[S]].NumEntryStubs;

  // Integrity metadata: per-region expanded-word CRCs (with the recovery
  // copies they are computed from), the immutable image prefix, and the
  // blob.
  Out.RecoveryWords.resize(Part.Regions.size());
  for (size_t R = 0; R != Part.Regions.size(); ++R) {
    std::vector<uint32_t> Words;
    Words.reserve(ExpandedWords[R]);
    for (const MInst &I : Stored[R])
      expandStoredInst(L, I, L.BufferBase + 4 +
                              4 * static_cast<uint32_t>(Words.size()),
                       Words);
    if (Words.size() != ExpandedWords[R])
      return Status::error(StatusCode::InternalError,
                           "rewriter: expanded size mismatch in region " +
                               std::to_string(R));
    Out.Regions[R].Crc32 = expandedWordsCrc(Words);
    if (Opts.RetainRecoveryCopies)
      Out.RecoveryWords[R] = std::move(Words);
  }
  L.ImageCrc32 = crc32(Img.Bytes.data(), L.StubAreaBase - Img.Base);
  L.BlobCrc32 = crc32(Img.Bytes.data() + (L.BlobBase - Img.Base),
                      L.BlobBytes);

  // Footprint.
  F.NeverCompressedWords = NCWords;
  F.EntryStubWords = 2 * static_cast<uint32_t>(StubBlocks.size());
  F.DecompressorWords = Opts.DecompressorCodeWords;
  F.OffsetTableWords = static_cast<uint32_t>(Part.Regions.size());
  F.StubAreaWords = RuntimeLayout::StubSlotWords * L.StubSlots;
  F.SlotMapWords = L.CacheSlots;
  F.BufferWords = L.BufferWords;
  F.CompressedBytes = L.BlobBytes;
  return Status::success();
}

Expected<SquashedProgram> Rewriter::run() {
  computeEntries();
  if (Status St = computeExpandedOffsets(); !St.ok())
    return St;
  if (Status St = layout(); !St.ok())
    return St;
  if (Status St = lowerRegions(); !St.ok())
    return St;
  if (Status St = emit(); !St.ok())
    return St;
  Out.Layout = L;
  Out.Opts = Opts;
  if (HadExplicitOrder)
    recordFunctionOrder(Out, Prog, FuncOrder);
  return std::move(Out);
}

Expected<std::vector<std::vector<MInst>>> Rewriter::preview() {
  computeEntries();
  if (Status St = computeExpandedOffsets(); !St.ok())
    return St;
  if (Status St = layout(); !St.ok())
    return St;
  if (Status St = lowerRegions(); !St.ok())
    return St;
  return std::move(Stored);
}

namespace {

/// The argument checks rewriteProgram and lowerStoredRegions share: one
/// buffer-safe flag per function, and an empty function order or a
/// permutation of the function indices.
Status checkRewriterInputs(const Cfg &G, const std::vector<uint8_t> &Safe,
                           const std::vector<unsigned> &FuncOrder) {
  if (Safe.size() != G.numFunctions())
    return Status::error(
        StatusCode::InvalidArgument,
        "rewriter: buffer-safe vector does not match program");
  if (FuncOrder.empty())
    return Status::success();
  if (FuncOrder.size() != G.numFunctions())
    return Status::error(StatusCode::InvalidArgument,
                         "rewriter: function order does not match program");
  std::vector<uint8_t> Seen(G.numFunctions(), 0);
  for (unsigned F : FuncOrder) {
    if (F >= G.numFunctions() || Seen[F])
      return Status::error(StatusCode::InvalidArgument,
                           "rewriter: function order is not a permutation");
    Seen[F] = 1;
  }
  return Status::success();
}

} // namespace

void squash::recordFunctionOrder(SquashedProgram &SP, const Program &Prog,
                                 const std::vector<unsigned> &FuncOrder) {
  SP.FuncLayout.clear();
  for (unsigned F : FuncOrder) {
    FunctionPlacement P;
    P.FuncIdx = F;
    P.Name = Prog.Functions[F].Name;
    auto It = SP.Img.Symbols.find(P.Name);
    P.Addr = It != SP.Img.Symbols.end() ? It->second : 0;
    SP.FuncLayout.push_back(std::move(P));
  }
}

Expected<SquashedProgram>
squash::rewriteProgram(const Program &Prog, const Cfg &G,
                       const Partition &Part,
                       const std::vector<uint8_t> &Safe,
                       const Options &Opts, CodecPlan Plan,
                       const std::vector<unsigned> &FuncOrder) {
  if (Status St = checkRewriterInputs(G, Safe, FuncOrder); !St.ok())
    return St;
  Rewriter RW(Prog, G, Part, Safe, Opts, std::move(Plan), FuncOrder);
  return RW.run();
}

Expected<std::vector<std::vector<MInst>>>
squash::lowerStoredRegions(const Program &Prog, const Cfg &G,
                           const Partition &Part,
                           const std::vector<uint8_t> &Safe,
                           const Options &Opts,
                           const std::vector<unsigned> &FuncOrder) {
  if (Status St = checkRewriterInputs(G, Safe, FuncOrder); !St.ok())
    return St;
  Rewriter RW(Prog, G, Part, Safe, Opts, CodecPlan(), FuncOrder);
  return RW.preview();
}

std::unique_ptr<RegionCursor>
SquashedProgram::makeRegionCursor(size_t R, const uint8_t *Blob,
                                  size_t BlobBytes) const {
  const size_t StartBit = Regions[R].BitOffset;
  switch (regionCodec(R)) {
  case CodecKind::Huffman:
    return HuffmanCodecView(Codecs).makeDecoder(Blob, BlobBytes, StartBit);
  case CodecKind::Pattern:
    return Pattern.makeDecoder(Blob, BlobBytes, StartBit);
  }
  return nullptr;
}

void FootprintBreakdown::exportMetrics(vea::MetricsRegistry &R,
                                       const std::string &Prefix) const {
  R.setCounter(Prefix + "never_compressed_words", NeverCompressedWords);
  R.setCounter(Prefix + "entry_stub_words", EntryStubWords);
  R.setCounter(Prefix + "decompressor_words", DecompressorWords);
  R.setCounter(Prefix + "offset_table_words", OffsetTableWords);
  R.setCounter(Prefix + "stub_area_words", StubAreaWords);
  R.setCounter(Prefix + "slot_map_words", SlotMapWords);
  R.setCounter(Prefix + "buffer_words", BufferWords);
  R.setCounter(Prefix + "compressed_bytes", CompressedBytes);
  R.setCounter(Prefix + "huffman_table_bits", HuffmanTableBits);
  R.setCounter(Prefix + "pattern_table_bits", PatternTableBits);
  R.setCounter(Prefix + "payload_bits", PayloadBits);
  R.setCounter(Prefix + "original_code_bytes", OriginalCodeBytes);
  R.setCounter(Prefix + "total_code_bytes", totalCodeBytes());
  R.setGauge(Prefix + "reduction", reduction());
}
