#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/binary_io.h"
#include "common/rng.h"
#include "core/embedded_dataset.h"
#include "core/service.h"
#include "store/exact_store.h"
#include "data/profiles.h"
#include "linalg/serialize.h"

namespace seesaw {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ------------------------------------------------------------- binary io --

TEST(BinaryIoTest, RoundTripsScalarsAndStrings) {
  std::string path = TempPath("scalars.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteU32(0xDEADBEEF).ok());
    ASSERT_TRUE(writer->WriteU64(1ull << 40).ok());
    ASSERT_TRUE(writer->WriteF32(3.25f).ok());
    ASSERT_TRUE(writer->WriteF64(-2.5).ok());
    ASSERT_TRUE(writer->WriteString("seesaw").ok());
    ASSERT_TRUE(writer->WriteString("").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*reader->ReadU64(), 1ull << 40);
  EXPECT_FLOAT_EQ(*reader->ReadF32(), 3.25f);
  EXPECT_DOUBLE_EQ(*reader->ReadF64(), -2.5);
  EXPECT_EQ(*reader->ReadString(), "seesaw");
  EXPECT_EQ(*reader->ReadString(), "");
  // Reading past the end fails cleanly.
  EXPECT_FALSE(reader->ReadU32().ok());
}

TEST(BinaryIoTest, MissingFileIsNotFound) {
  auto reader = BinaryReader::Open(TempPath("does_not_exist.bin"));
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsNotFound());
}

TEST(BinaryIoTest, TruncatedReadFails) {
  std::string path = TempPath("truncated.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteU32(7).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->ReadU64().ok());  // only 4 bytes available
}

TEST(BinaryIoTest, CorruptStringLengthRejected) {
  std::string path = TempPath("badstring.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteU64(~0ull).ok());  // absurd length prefix
    ASSERT_TRUE(writer->Close().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->ReadString().ok());
}

// --------------------------------------------------------- matrix (de)ser --

TEST(MatrixSerializeTest, RoundTrip) {
  Rng rng(1);
  linalg::MatrixF m(17, 9);
  for (auto& v : m.mutable_data()) v = static_cast<float>(rng.Gaussian());
  std::string path = TempPath("matrix.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(linalg::SaveMatrix(*writer, m).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto loaded = linalg::LoadMatrix(*reader);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), m.rows());
  EXPECT_EQ(loaded->cols(), m.cols());
  EXPECT_EQ(loaded->data(), m.data());
}

TEST(MatrixSerializeTest, EmptyMatrixRoundTrip) {
  std::string path = TempPath("empty_matrix.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(linalg::SaveMatrix(*writer, linalg::MatrixF()).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto loaded = linalg::LoadMatrix(*reader);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), 0u);
}

// ------------------------------------------------- embedded dataset cache --

data::DatasetProfile SmallProfile() {
  auto p = data::CocoLikeProfile(0.04);
  p.embedding_dim = 32;
  return p;
}

TEST(EmbeddedCacheTest, SaveLoadRoundTrip) {
  auto ds = data::Dataset::Generate(SmallProfile());
  ASSERT_TRUE(ds.ok());
  core::PreprocessOptions options;
  options.md.k = 5;
  auto built = core::EmbeddedDataset::Build(*ds, options);
  ASSERT_TRUE(built.ok());

  std::string path = TempPath("embedded.cache");
  ASSERT_TRUE(built->Save(path).ok());
  auto loaded = core::EmbeddedDataset::Load(path, *ds, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->num_vectors(), built->num_vectors());
  EXPECT_EQ(loaded->vectors().data(), built->vectors().data());
  ASSERT_NE(loaded->md(), nullptr);
  EXPECT_EQ(loaded->md()->data(), built->md()->data());
  for (uint32_t i = 0; i < ds->num_images(); ++i) {
    EXPECT_EQ(loaded->ImagePatchRange(i), built->ImagePatchRange(i));
  }
  // Store answers identically (both exact over identical vectors).
  auto q = loaded->TextQuery(0);
  auto a = loaded->store().TopK(q, 5);
  auto b = built->store().TopK(q, 5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

TEST(EmbeddedCacheTest, ExactStoreSharesTheTable) {
  // With the exact backend the store keeps the only fp32 table and
  // vectors() reads it, across moves of the dataset; other backends index a
  // copy of their own. Either way vectors() holds the same rows.
  auto ds = data::Dataset::Generate(SmallProfile());
  ASSERT_TRUE(ds.ok());
  core::PreprocessOptions options;
  options.build_md = false;
  auto exact = core::EmbeddedDataset::Build(*ds, options);
  ASSERT_TRUE(exact.ok());
  core::EmbeddedDataset moved = std::move(*exact);
  const auto& store = static_cast<const store::ExactStore&>(moved.store());
  EXPECT_EQ(&moved.vectors(), &store.vectors());

  options.backend = core::StoreBackend::kIvf;
  auto ivf = core::EmbeddedDataset::Build(*ds, options);
  ASSERT_TRUE(ivf.ok());
  EXPECT_EQ(ivf->vectors().data(), moved.vectors().data());
  for (uint32_t id : {0u, 7u}) {
    EXPECT_NE(ivf->store().GetVector(id).data(), ivf->vectors().Row(id).data());
  }
}

TEST(EmbeddedCacheTest, RejectsWrongDataset) {
  auto ds = data::Dataset::Generate(SmallProfile());
  ASSERT_TRUE(ds.ok());
  core::PreprocessOptions options;
  options.build_md = false;
  options.multiscale.enabled = false;
  auto built = core::EmbeddedDataset::Build(*ds, options);
  ASSERT_TRUE(built.ok());
  std::string path = TempPath("embedded_mismatch.cache");
  ASSERT_TRUE(built->Save(path).ok());

  auto other_profile = SmallProfile();
  other_profile.num_images = 77;
  auto other = data::Dataset::Generate(other_profile);
  ASSERT_TRUE(other.ok());
  auto loaded = core::EmbeddedDataset::Load(path, *other, options);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsFailedPrecondition());
}

TEST(EmbeddedCacheTest, RejectsGarbageFile) {
  std::string path = TempPath("garbage.cache");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a cache", f);
  std::fclose(f);
  auto ds = data::Dataset::Generate(SmallProfile());
  ASSERT_TRUE(ds.ok());
  EXPECT_FALSE(core::EmbeddedDataset::Load(path, *ds, {}).ok());
}

// ----------------------------------------------------------- service API --

TEST(ServiceTest, CreatesAndSearchesByName) {
  auto profile = data::BddLikeProfile(0.05);
  profile.embedding_dim = 32;
  auto ds = data::Dataset::Generate(profile);
  ASSERT_TRUE(ds.ok());
  core::ServiceOptions options;
  options.preprocess.md.k = 5;
  auto service = core::SeeSawService::Create(*ds, options);
  ASSERT_TRUE(service.ok()) << service.status();

  auto session = service->StartSession("car");
  ASSERT_TRUE(session.ok());
  auto batch = (*session)->NextBatch(5);
  EXPECT_EQ(batch.size(), 5u);

  EXPECT_TRUE(service->StartSession("no such thing").status().IsNotFound());
}

TEST(ServiceTest, RejectsWrongDimensionVector) {
  auto profile = data::BddLikeProfile(0.05);
  profile.embedding_dim = 32;
  auto ds = data::Dataset::Generate(profile);
  ASSERT_TRUE(ds.ok());
  core::ServiceOptions options;
  options.preprocess.build_md = false;
  auto service = core::SeeSawService::Create(*ds, options);
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE(service->StartSession(linalg::VectorF(7, 0.1f)).ok());
}

TEST(ServiceTest, CacheWriteAndReuse) {
  auto profile = data::BddLikeProfile(0.05);
  profile.embedding_dim = 32;
  auto ds = data::Dataset::Generate(profile);
  ASSERT_TRUE(ds.ok());
  core::ServiceOptions options;
  options.preprocess.md.k = 5;
  options.cache_path = TempPath("service.cache");
  std::remove(options.cache_path.c_str());

  auto first = core::SeeSawService::Create(*ds, options);
  ASSERT_TRUE(first.ok()) << first.status();
  // Second creation must load the cache and produce identical vectors.
  auto second = core::SeeSawService::Create(*ds, options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->embedded().vectors().data(),
            second->embedded().vectors().data());
}

}  // namespace
}  // namespace seesaw
