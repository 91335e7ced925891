#include "tensor/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace dismastd {
namespace {

SparseTensor MakeTensor() {
  SparseTensor t({3, 4, 2});
  t.Add({0, 0, 0}, 1.5);
  t.Add({2, 3, 1}, -2.25);
  t.Add({1, 2, 0}, 1e-8);
  return t;
}

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TensorIoTest, TextRoundTripViaStreams) {
  const SparseTensor t = MakeTensor();
  std::ostringstream os;
  ASSERT_TRUE(WriteTensorText(t, os).ok());
  std::istringstream is(os.str());
  Result<SparseTensor> back = ReadTensorText(is);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back.value() == t);
}

TEST(TensorIoTest, TextFormatIsHumanReadable) {
  SparseTensor t({2, 2});
  t.Add({1, 0}, 3.0);
  std::ostringstream os;
  ASSERT_TRUE(WriteTensorText(t, os).ok());
  EXPECT_EQ(os.str(), "2 2 2\n1 0 3\n");
}

TEST(TensorIoTest, TextSkipsCommentsAndBlankLines) {
  std::istringstream is("2 2 2\n# comment line\n\n0 1 4.5\n");
  Result<SparseTensor> t = ReadTensorText(is);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().nnz(), 1u);
  EXPECT_EQ(t.value().Value(0), 4.5);
}

TEST(TensorIoTest, TextRejectsEmptyStream) {
  std::istringstream is("");
  EXPECT_EQ(ReadTensorText(is).status().code(), StatusCode::kIoError);
}

TEST(TensorIoTest, TextRejectsBadHeader) {
  std::istringstream is("abc\n");
  EXPECT_FALSE(ReadTensorText(is).ok());
}

TEST(TensorIoTest, TextRejectsOutOfBoundsIndex) {
  std::istringstream is("2 2 2\n5 0 1.0\n");
  EXPECT_EQ(ReadTensorText(is).status().code(), StatusCode::kOutOfRange);
}

TEST(TensorIoTest, TextRejectsMissingValue) {
  std::istringstream is("2 2 2\n0 1\n");
  EXPECT_EQ(ReadTensorText(is).status().code(), StatusCode::kIoError);
}

TEST(TensorIoTest, TextFileRoundTrip) {
  const SparseTensor t = MakeTensor();
  const std::string path = TempPath("tensor_io_text.tns");
  ASSERT_TRUE(WriteTensorTextFile(t, path).ok());
  Result<SparseTensor> back = ReadTensorTextFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value() == t);
  std::remove(path.c_str());
}

TEST(TensorIoTest, TextFileMissingFails) {
  EXPECT_EQ(ReadTensorTextFile("/nonexistent/nope.tns").status().code(),
            StatusCode::kIoError);
}

TEST(TensorIoTest, EmptyTensorRoundTrips) {
  const SparseTensor t({5, 5});
  std::ostringstream os;
  ASSERT_TRUE(WriteTensorText(t, os).ok());
  std::istringstream is(os.str());
  Result<SparseTensor> back = ReadTensorText(is);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().nnz(), 0u);
  EXPECT_EQ(back.value().dims(), t.dims());
}

}  // namespace
}  // namespace dismastd
