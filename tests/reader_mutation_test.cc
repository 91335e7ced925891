// Byte-mutation sweep over the four readers that take outside input: the
// KRSK factor file (ReadKruskal), the DCKP stream checkpoint
// (ReadStreamCheckpointFile), the TEVT event log (EventLogReader::FromBytes,
// then a decode of every slot) and the text tensor format (ReadTensorText).
// Each reader gets one small valid input with every single byte flipped
// (XOR 0x01, 0x80 and 0xFF: lowest bit, sign bit of a little-endian field's
// top byte, whole byte) and every truncation of it. Each call must return,
// OK or not, and an OK result must be internally consistent.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "ingest/event_log.h"
#include "la/matrix.h"
#include "tensor/checkpoint.h"
#include "tensor/io.h"
#include "tensor/kruskal.h"

namespace dismastd {
namespace {

constexpr uint8_t kFlipMasks[] = {0x01, 0x80, 0xFF};

/// Runs `check(input, label)` on every single-byte flip and every
/// truncation (lengths 0 .. n-1) of `bytes`; returns the number of cases.
template <typename Check>
size_t ForEachMutation(const std::vector<uint8_t>& bytes, Check&& check) {
  size_t cases = 0;
  std::vector<uint8_t> mutated = bytes;
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t mask : kFlipMasks) {
      mutated[i] = static_cast<uint8_t>(bytes[i] ^ mask);
      check(mutated, "byte " + std::to_string(i) + " ^ " +
                         std::to_string(mask));
      ++cases;
    }
    mutated[i] = bytes[i];
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    check(std::vector<uint8_t>(bytes.begin(), bytes.begin() + len),
          "truncated to " + std::to_string(len));
    ++cases;
  }
  return cases;
}

std::vector<uint8_t> ToBytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string ToString(const std::vector<uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

KruskalTensor SmallModel() {
  Rng rng(5);
  std::vector<Matrix> factors;
  for (size_t rows : {size_t{4}, size_t{3}, size_t{2}}) {
    factors.push_back(Matrix::Random(rows, 2, rng));
  }
  return KruskalTensor(std::move(factors));
}

/// A factor's shape is backed by its storage; rows * cols is compared by
/// division, so a wrapped product cannot pass.
bool ShapeMatchesStorage(const Matrix& m) {
  if (m.cols() == 0) return m.size() == 0;
  return m.size() % m.cols() == 0 && m.size() / m.cols() == m.rows();
}

/// Every factor has the model's rank and a shape its storage backs.
bool ConsistentModel(const KruskalTensor& model) {
  if (model.order() == 0) return false;
  for (size_t n = 0; n < model.order(); ++n) {
    const Matrix& f = model.factor(n);
    if (f.cols() != model.rank() || !ShapeMatchesStorage(f)) return false;
  }
  return true;
}

TEST(ReaderMutationTest, KruskalReaderSurvivesEveryByteFlipAndTruncation) {
  std::ostringstream os;
  ASSERT_TRUE(WriteKruskal(SmallModel(), os).ok());
  const std::vector<uint8_t> valid = ToBytes(os.str());
  size_t accepted = 0;
  const size_t cases = ForEachMutation(
      valid, [&](const std::vector<uint8_t>& input, const std::string& label) {
        std::istringstream is(ToString(input));
        const Result<KruskalTensor> model = ReadKruskal(is);
        if (!model.ok()) return;
        ++accepted;
        EXPECT_TRUE(ConsistentModel(model.value())) << label;
      });
  // Flips inside the doubles still decode; header flips are rejected.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, cases);
}

TEST(ReaderMutationTest, CheckpointReaderSurvivesEveryByteFlipAndTruncation) {
  StreamCheckpoint checkpoint;
  checkpoint.factors = SmallModel();
  checkpoint.dims = checkpoint.factors.dims();
  checkpoint.step = 7;
  const std::string path =
      std::string(::testing::TempDir()) + "/reader_mutation.ckpt";
  ASSERT_TRUE(WriteStreamCheckpointFile(checkpoint, path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> valid((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(valid.empty());
  size_t accepted = 0;
  ForEachMutation(valid, [&](const std::vector<uint8_t>& input,
                             const std::string& label) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(input.data()),
                static_cast<std::streamsize>(input.size()));
    }
    const Result<StreamCheckpoint> read = ReadStreamCheckpointFile(path);
    if (!read.ok()) return;
    ++accepted;
    const StreamCheckpoint& got = read.value();
    ASSERT_TRUE(ConsistentModel(got.factors)) << label;
    ASSERT_EQ(got.dims.size(), got.factors.order()) << label;
    for (size_t n = 0; n < got.dims.size(); ++n) {
      EXPECT_EQ(got.dims[n], got.factors.factor(n).rows()) << label;
    }
  });
  EXPECT_GT(accepted, 0u);
  std::remove(path.c_str());
}

TEST(ReaderMutationTest, EventLogReaderSurvivesEveryByteFlipAndTruncation) {
  ingest::EventLogWriter writer(3);
  writer.AppendEvent(1, {0, 1, 2}, 0.5);
  writer.AppendEvent(2, {3, 0, 1}, -1.25);
  writer.AppendEventWithSeq(0, 3, {0, 1, 2}, 0.5);
  writer.AppendBarrier(4, {4, 2, 3});
  writer.AppendEvent(5, {1, 1, 0}, 2.0);
  const std::vector<uint8_t> valid = writer.ToBytes();
  size_t accepted = 0;
  size_t quarantined = 0;
  ForEachMutation(valid, [&](const std::vector<uint8_t>& input,
                             const std::string& label) {
    const Result<ingest::EventLogReader> log =
        ingest::EventLogReader::FromBytes(input);
    if (!log.ok()) return;
    ++accepted;
    const ingest::EventLogReader& reader = log.value();
    ASSERT_GE(reader.order(), 1u) << label;
    ASSERT_LE(reader.num_slots(), reader.declared_records()) << label;
    ASSERT_LE(ingest::kEventLogHeaderBytes +
                  reader.num_slots() * ingest::EventRecordBytes(reader.order()),
              input.size())
        << label;
    for (size_t slot = 0; slot < reader.num_slots(); ++slot) {
      ingest::EventRecord record;
      switch (reader.Decode(slot, &record)) {
        case ingest::SlotKind::kEvent:
        case ingest::SlotKind::kBarrier:
          EXPECT_EQ(record.fields.size(), reader.order()) << label;
          break;
        case ingest::SlotKind::kQuarantined:
          ++quarantined;
          break;
      }
    }
  });
  EXPECT_GT(accepted, 0u);
  // A flip inside a record fails its CRC and quarantines that slot alone.
  EXPECT_GT(quarantined, 0u);
}

TEST(ReaderMutationTest, TextTensorReaderSurvivesEveryByteFlipAndTruncation) {
  SparseTensor tensor({4, 3, 2});
  tensor.Add({0, 1, 1}, 0.5);
  tensor.Add({3, 2, 0}, -1.25);
  tensor.Add({1, 0, 1}, 3.0e-7);
  tensor.Add({2, 2, 1}, 12.0);
  std::ostringstream os;
  ASSERT_TRUE(WriteTensorText(tensor, os).ok());
  const std::vector<uint8_t> valid = ToBytes(os.str());
  size_t accepted = 0;
  ForEachMutation(valid, [&](const std::vector<uint8_t>& input,
                             const std::string& label) {
    std::istringstream is(ToString(input));
    const Result<SparseTensor> read = ReadTensorText(is);
    if (!read.ok()) return;
    ++accepted;
    EXPECT_TRUE(read.value().Validate().ok()) << label;
  });
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace dismastd
