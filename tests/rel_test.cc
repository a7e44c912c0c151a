// Tests for src/rel: values, codec, row stores, buffer pool, indexes,
// tables, database catalog.

#include <atomic>
#include <thread>

#include "gtest/gtest.h"
#include "json/json_parser.h"
#include "rel/codec.h"
#include "rel/database.h"
#include "util/rng.h"

namespace sqlgraph {
namespace rel {
namespace {

// ------------------------------------------------------------------ Value --

TEST(ValueTest, NullAndTypes) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(7).is_int());
  EXPECT_TRUE(Value(0.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(json::JsonValue::Object()).is_json());
}

TEST(ValueTest, CrossTypeNumericCompare) {
  EXPECT_EQ(Value(3).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(2).Compare(Value(2.5)), 0);
  EXPECT_GT(Value(3.5).Compare(Value(3)), 0);
}

TEST(ValueTest, TypeRankOrdering) {
  // NULL < bool < number < string < json
  EXPECT_LT(Value().Compare(Value(false)), 0);
  EXPECT_LT(Value(true).Compare(Value(0)), 0);
  EXPECT_LT(Value(999).Compare(Value("a")), 0);
  EXPECT_LT(Value("zzz").Compare(Value(json::JsonValue::Object())), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(3).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_EQ(Value().Hash(), Value().Hash());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value(true).ToString(), "true");
}

TEST(IndexKeyTest, CompositeOrderingAndEquality) {
  IndexKey a{{Value(1), Value("x")}};
  IndexKey b{{Value(1), Value("y")}};
  IndexKey c{{Value(1), Value("x")}};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(a == c);
  EXPECT_EQ(IndexKeyHash{}(a), IndexKeyHash{}(c));
}

// ------------------------------------------------------------------ Codec --

TEST(CodecTest, VarintRoundTrip) {
  std::string buf;
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 40,
                     ~0ull}) {
    buf.clear();
    PutVarint(v, &buf);
    size_t offset = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint(buf, &offset, &out).ok());
    EXPECT_EQ(out, v);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(CodecTest, RowRoundTripAllTypes) {
  json::JsonValue obj = json::JsonValue::Object();
  obj.Set("name", "marko");
  obj.Set("age", 29);
  Row row{Value(), Value(true), Value(-42), Value(2.718), Value("text"),
          Value(obj)};
  std::string buf;
  EncodeRow(row, &buf);
  size_t offset = 0;
  Row decoded;
  ASSERT_TRUE(DecodeRow(buf, row.size(), &offset, &decoded).ok());
  ASSERT_EQ(decoded.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(decoded[i], row[i]) << "column " << i;
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(CodecTest, MultipleRowsSequential) {
  std::string buf;
  EncodeRow({Value(1), Value("a")}, &buf);
  EncodeRow({Value(2), Value("b")}, &buf);
  size_t offset = 0;
  Row r1, r2;
  ASSERT_TRUE(DecodeRow(buf, 2, &offset, &r1).ok());
  ASSERT_TRUE(DecodeRow(buf, 2, &offset, &r2).ok());
  EXPECT_EQ(r1[0].AsInt(), 1);
  EXPECT_EQ(r2[1].AsString(), "b");
}

TEST(CodecTest, TruncatedBufferFails) {
  std::string buf;
  EncodeRow({Value("long string value")}, &buf);
  std::string cut = buf.substr(0, buf.size() - 3);
  size_t offset = 0;
  Row out;
  EXPECT_FALSE(DecodeRow(cut, 1, &offset, &out).ok());
}

// -------------------------------------------------------------- RowStores --

template <typename T>
std::unique_ptr<RowStore> MakeStore(BufferPool* pool);

template <>
std::unique_ptr<RowStore> MakeStore<VectorRowStore>(BufferPool*) {
  return std::make_unique<VectorRowStore>();
}
template <>
std::unique_ptr<RowStore> MakeStore<PagedRowStore>(BufferPool* pool) {
  return std::make_unique<PagedRowStore>(pool, 2, /*rows_per_page=*/4);
}

template <typename T>
class RowStoreTest : public ::testing::Test {
 protected:
  BufferPool pool_{1 << 20};
  std::unique_ptr<RowStore> store_ = MakeStore<T>(&pool_);
};

using StoreTypes = ::testing::Types<VectorRowStore, PagedRowStore>;
TYPED_TEST_SUITE(RowStoreTest, StoreTypes);

TYPED_TEST(RowStoreTest, AppendGet) {
  RowId rid = this->store_->Append({Value(1), Value("a")});
  Row out;
  ASSERT_TRUE(this->store_->Get(rid, &out).ok());
  EXPECT_EQ(out[0].AsInt(), 1);
  EXPECT_EQ(out[1].AsString(), "a");
}

TYPED_TEST(RowStoreTest, DenseRowIds) {
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(this->store_->Append({Value(i), Value("r")}),
              static_cast<RowId>(i));
  }
  EXPECT_EQ(this->store_->NumLive(), 10u);
}

TYPED_TEST(RowStoreTest, UpdateInPlace) {
  RowId rid = this->store_->Append({Value(1), Value("a")});
  for (int i = 0; i < 10; ++i) this->store_->Append({Value(i), Value("pad")});
  ASSERT_TRUE(this->store_->Update(rid, {Value(2), Value("b")}).ok());
  Row out;
  ASSERT_TRUE(this->store_->Get(rid, &out).ok());
  EXPECT_EQ(out[0].AsInt(), 2);
  EXPECT_EQ(out[1].AsString(), "b");
}

TYPED_TEST(RowStoreTest, DeleteTombstones) {
  RowId rid = this->store_->Append({Value(1), Value("a")});
  ASSERT_TRUE(this->store_->Delete(rid).ok());
  EXPECT_FALSE(this->store_->IsLive(rid));
  Row out;
  EXPECT_TRUE(this->store_->Get(rid, &out).IsNotFound());
  EXPECT_TRUE(this->store_->Delete(rid).IsNotFound());
  EXPECT_EQ(this->store_->NumLive(), 0u);
  EXPECT_EQ(this->store_->NumSlots(), 1u);
}

TYPED_TEST(RowStoreTest, ScanVisitsLiveInOrder) {
  for (int i = 0; i < 20; ++i) this->store_->Append({Value(i), Value("r")});
  ASSERT_TRUE(this->store_->Delete(3).ok());
  ASSERT_TRUE(this->store_->Delete(17).ok());
  std::vector<int64_t> seen;
  this->store_->Scan(
      [&](RowId, const Row& row) { seen.push_back(row[0].AsInt()); });
  EXPECT_EQ(seen.size(), 18u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  for (int64_t v : seen) {
    EXPECT_NE(v, 3);
    EXPECT_NE(v, 17);
  }
}

TYPED_TEST(RowStoreTest, GetBeyondEndFails) {
  Row out;
  EXPECT_FALSE(this->store_->Get(99, &out).ok());
}

TEST(PagedRowStoreTest, SurvivesEviction) {
  BufferPool pool(1);  // effectively zero cache: every access decodes
  PagedRowStore store(&pool, 1, 4);
  for (int i = 0; i < 100; ++i) store.Append({Value(i)});
  Row out;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Get(static_cast<RowId>(i), &out).ok());
    EXPECT_EQ(out[0].AsInt(), i);
  }
  EXPECT_GT(pool.misses(), 0u);
}

TEST(PagedRowStoreTest, CacheHitsWithLargePool) {
  BufferPool pool(16 << 20);
  PagedRowStore store(&pool, 1, 4);
  for (int i = 0; i < 64; ++i) store.Append({Value(i)});
  Row out;
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(store.Get(static_cast<RowId>(i), &out).ok());
    }
  }
  EXPECT_GT(pool.hits(), pool.misses());
}

TEST(PagedRowStoreTest, UpdateRewritesSealedPage) {
  BufferPool pool(1 << 20);
  PagedRowStore store(&pool, 1, 2);
  for (int i = 0; i < 10; ++i) store.Append({Value(i)});
  ASSERT_TRUE(store.Update(0, {Value(1000)}).ok());
  pool.Clear();  // force re-decode from the blob
  Row out;
  ASSERT_TRUE(store.Get(0, &out).ok());
  EXPECT_EQ(out[0].AsInt(), 1000);
}

TEST(PagedRowStoreTest, SerializedBytesTracked) {
  BufferPool pool(1 << 20);
  PagedRowStore store(&pool, 1, 4);
  EXPECT_EQ(store.SerializedBytes(), 0u);
  for (int i = 0; i < 16; ++i) store.Append({Value(std::string(100, 'x'))});
  EXPECT_GT(store.SerializedBytes(), 1000u);
}

// Readers of a paged table run concurrently under a shared table lock, so
// they race on the pool: each misses, copies a frame in and evicts the
// others' frames while they still decode from them. Every read must still
// see its own row (TSan checks the frame handoff).
TEST(PagedRowStoreTest, ConcurrentReadersThroughATinyPool) {
  BufferPool pool(2 * (PageFrame::kOverheadBytes + 8 * 20));  // ~2 pages
  PagedRowStore store(&pool, 2, 8);
  constexpr int kRows = 512;
  for (int i = 0; i < kRows; ++i) {
    store.Append({Value(i), Value("row" + std::to_string(i))});
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Row out;
      for (int i = 0; i < 2000; ++i) {
        const int rid = (i * 37 + t * 101) % kRows;
        if (!store.Get(rid, &out).ok() || out[0].AsInt() != rid ||
            out[1].AsString() != "row" + std::to_string(rid)) {
          failed = true;
        }
      }
      int64_t expect = 0;
      store.Scan([&](RowId, const Row& row) {
        if (row[0].AsInt() != expect++) failed = true;
      });
      if (expect != kRows) failed = true;
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_LE(pool.cached_bytes(), pool.capacity());
}

// Randomized model check: PagedRowStore must agree with VectorRowStore
// under random Append/Get/Update/Delete/Restore/Scan sequences, with the
// pool cleared now and then so reads also run against freshly copied page
// images. Rows mix NULL, scalar, string and JSON columns, and the string
// column's length crosses the one-/two-byte varint boundary, so updates
// both grow and shrink a row's encoding inside its page. Rids are drawn
// over the whole store, so writes land on sealed pages and in the unsealed
// tail alike, tombstones included. After every step the store's
// SerializedBytes() must equal a from-scratch encoding of every slot's
// last written row (sealed pages keep a tombstoned row's bytes), and the
// pool must stay within its budget.
Row RandomModelRow(util::Rng* rng) {
  Row row(3);  // all NULL to start
  switch (rng->Uniform(5)) {
    case 0: break;
    case 1: row[0] = Value(rng->Chance(0.5)); break;
    case 2: row[0] = Value(rng->NextDouble() * 1e6); break;
    default: row[0] = Value(static_cast<int64_t>(rng->Next()));
  }
  if (!rng->Chance(0.2)) {
    row[1] = Value(std::string(rng->Uniform(300),
                               static_cast<char>('a' + rng->Uniform(26))));
  }
  if (!rng->Chance(0.2)) {
    json::JsonValue obj = json::JsonValue::Object();
    const uint64_t keys = rng->Uniform(4);
    for (uint64_t k = 0; k < keys; ++k) {
      if (rng->Chance(0.5)) {
        obj.Set("k" + std::to_string(k), static_cast<int64_t>(rng->Uniform(1000)));
      } else {
        obj.Set("k" + std::to_string(k), std::string(rng->Uniform(40), 'j'));
      }
    }
    row[2] = Value(std::move(obj));
  }
  return row;
}

std::string Encoded(const Row& row) {
  std::string out;
  EncodeRow(row, &out);
  return out;
}

std::vector<std::pair<RowId, std::string>> ScanEncoded(const RowStore& store) {
  std::vector<std::pair<RowId, std::string>> out;
  store.Scan([&](RowId rid, const Row& row) {
    out.emplace_back(rid, Encoded(row));
  });
  return out;
}

// (rows_per_page, pool budget in pages; 0 = room for the whole store)
class PagedRowStoreModelTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(PagedRowStoreModelTest, MatchesVectorRowStore) {
  const auto [rows_per_page, pool_pages] = GetParam();
  constexpr size_t kMeanRowBytes = 200;  // RandomModelRow's rough average
  const size_t page_bytes =
      PageFrame::kOverheadBytes + rows_per_page * kMeanRowBytes;
  BufferPool pool(pool_pages == 0 ? size_t{1} << 30 : pool_pages * page_bytes);
  PagedRowStore paged(&pool, 3, rows_per_page);
  VectorRowStore model;
  std::vector<Row> written;  // each slot's last written row, live or not
  util::Rng rng(0x9A6ED + rows_per_page * 7919 + pool_pages);

  constexpr int kSteps = 800;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // One past the end now and then, to hit the out-of-range paths.
    const RowId rid = rng.Uniform(written.size() + 1);
    Row out_paged, out_model;
    switch (rng.Uniform(10)) {
      case 0:
      case 1:
      case 2: {
        Row row = RandomModelRow(&rng);
        written.push_back(row);
        ASSERT_EQ(paged.Append(row), model.Append(row));
        break;
      }
      case 3: {
        const util::Status a = paged.Get(rid, &out_paged);
        const util::Status b = model.Get(rid, &out_model);
        ASSERT_EQ(a.code(), b.code());
        if (a.ok()) {
          ASSERT_EQ(Encoded(out_paged), Encoded(out_model));
        }
        break;
      }
      case 4:
      case 5: {
        Row row = RandomModelRow(&rng);
        const util::Status a = paged.Update(rid, row);
        ASSERT_EQ(a.code(), model.Update(rid, row).code());
        if (a.ok()) written[rid] = std::move(row);
        break;
      }
      case 6:
        ASSERT_EQ(paged.Delete(rid).code(), model.Delete(rid).code());
        break;
      case 7: {
        Row row = RandomModelRow(&rng);
        const util::Status a = paged.Restore(rid, row);
        ASSERT_EQ(a.code(), model.Restore(rid, row).code());
        if (a.ok()) written[rid] = std::move(row);
        break;
      }
      case 8:
        ASSERT_EQ(ScanEncoded(paged), ScanEncoded(model));
        break;
      default:
        pool.Clear();  // later reads copy fresh images from the blobs
    }
    ASSERT_EQ(paged.NumSlots(), model.NumSlots());
    ASSERT_EQ(paged.NumLive(), model.NumLive());
    ASSERT_EQ(paged.IsLive(rid), model.IsLive(rid));
    size_t want_bytes = 0;
    for (const Row& row : written) want_bytes += Encoded(row).size();
    ASSERT_EQ(paged.SerializedBytes(), want_bytes);
    ASSERT_LE(pool.cached_bytes(), pool.capacity());
  }
  ASSERT_GT(paged.NumSlots(), 2 * rows_per_page);  // several sealed pages
  ASSERT_EQ(ScanEncoded(paged), ScanEncoded(model));
  pool.Clear();
  for (RowId rid = 0; rid < written.size(); ++rid) {
    Row out_paged, out_model;
    ASSERT_EQ(paged.Get(rid, &out_paged).code(),
              model.Get(rid, &out_model).code());
    if (model.IsLive(rid)) {
      ASSERT_EQ(Encoded(out_paged), Encoded(out_model));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PageShapes, PagedRowStoreModelTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{4},
                                         size_t{64}),
                       ::testing::Values(size_t{1}, size_t{4}, size_t{0})));

// ------------------------------------------------------------ BufferPool --

// A frame whose byte_size (image plus fixed overhead) is exactly `bytes`.
std::shared_ptr<const PageFrame> FrameOfSize(size_t bytes) {
  return std::make_shared<const PageFrame>(
      std::string(bytes - PageFrame::kOverheadBytes, 'x'));
}

TEST(BufferPoolTest, LruEvictsOldest) {
  BufferPool pool(300);
  pool.Insert({1, 0}, FrameOfSize(100));
  pool.Insert({1, 1}, FrameOfSize(100));
  pool.Insert({1, 2}, FrameOfSize(100));
  EXPECT_NE(pool.Lookup({1, 0}), nullptr);  // touch 0 → 1 is now LRU
  pool.Insert({1, 3}, FrameOfSize(100));    // evicts 1
  EXPECT_EQ(pool.Lookup({1, 1}), nullptr);
  EXPECT_NE(pool.Lookup({1, 0}), nullptr);
  EXPECT_NE(pool.Lookup({1, 3}), nullptr);
}

TEST(BufferPoolTest, CapacityShrinkEvicts) {
  BufferPool pool(1000);
  for (uint32_t i = 0; i < 5; ++i) pool.Insert({1, i}, FrameOfSize(100));
  EXPECT_EQ(pool.cached_bytes(), 500u);
  pool.set_capacity(250);
  EXPECT_LE(pool.cached_bytes(), 250u);
}

TEST(BufferPoolTest, InvalidateStoreDropsOnlyThatStore) {
  BufferPool pool(10000);
  auto p = std::make_shared<const PageFrame>(std::string(10, 'x'));
  pool.Insert({1, 0}, p);
  pool.Insert({2, 0}, p);
  pool.InvalidateStore(1);
  EXPECT_EQ(pool.Lookup({1, 0}), nullptr);
  EXPECT_NE(pool.Lookup({2, 0}), nullptr);
}

// ---------------------------------------------------------------- Indexes --

TEST(HashIndexTest, InsertLookupRemove) {
  HashIndex idx("i", {0}, false);
  ASSERT_TRUE(idx.Insert({{Value(1)}}, 10).ok());
  ASSERT_TRUE(idx.Insert({{Value(1)}}, 11).ok());
  ASSERT_TRUE(idx.Insert({{Value(2)}}, 12).ok());
  std::vector<RowId> hits;
  idx.Lookup({{Value(1)}}, &hits);
  EXPECT_EQ(hits.size(), 2u);
  idx.Remove({{Value(1)}}, 10);
  hits.clear();
  idx.Lookup({{Value(1)}}, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 11u);
  EXPECT_EQ(idx.NumDistinctKeys(), 2u);
  EXPECT_EQ(idx.NumEntries(), 2u);
}

TEST(HashIndexTest, UniqueRejectsDuplicates) {
  HashIndex idx("u", {0}, true);
  ASSERT_TRUE(idx.Insert({{Value(1)}}, 10).ok());
  EXPECT_FALSE(idx.Insert({{Value(1)}}, 11).ok());
}

TEST(OrderedIndexTest, RangeScan) {
  OrderedIndex idx("o", {0}, false);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(idx.Insert({{Value(i)}}, static_cast<RowId>(i)).ok());
  }
  std::vector<RowId> hits;
  idx.Range(Value(3), true, Value(6), true, &hits);
  EXPECT_EQ(hits.size(), 4u);
  hits.clear();
  idx.Range(Value(3), false, Value(6), false, &hits);
  EXPECT_EQ(hits.size(), 2u);
  hits.clear();
  idx.Range(Value::Null(), true, Value(2), true, &hits);
  EXPECT_EQ(hits.size(), 3u);  // 0,1,2 (no null keys present)
  hits.clear();
  idx.Range(Value(8), true, Value::Null(), true, &hits);
  EXPECT_EQ(hits.size(), 2u);  // 8,9
}

TEST(OrderedIndexTest, RangeWithStrings) {
  OrderedIndex idx("o", {0}, false);
  ASSERT_TRUE(idx.Insert({{Value("apple")}}, 1).ok());
  ASSERT_TRUE(idx.Insert({{Value("applesauce")}}, 2).ok());
  ASSERT_TRUE(idx.Insert({{Value("banana")}}, 3).ok());
  std::vector<RowId> hits;
  std::string hi = "apple";
  hi.push_back('\xff');
  idx.Range(Value("apple"), true, Value(hi), false, &hits);
  EXPECT_EQ(hits.size(), 2u);
}

// ------------------------------------------------------------------ Table --

Schema TwoColSchema() {
  Schema s;
  s.AddColumn("id", ColumnType::kInt64, /*nullable=*/false);
  s.AddColumn("name", ColumnType::kString);
  return s;
}

TEST(TableTest, InsertValidatesArityAndTypes) {
  Table t("t", TwoColSchema(), std::make_unique<VectorRowStore>());
  EXPECT_TRUE(t.Insert({Value(1), Value("a")}).ok());
  EXPECT_FALSE(t.Insert({Value(1)}).ok());               // arity
  EXPECT_FALSE(t.Insert({Value("x"), Value("a")}).ok()); // type
  EXPECT_FALSE(t.Insert({Value(), Value("a")}).ok());    // non-nullable
  EXPECT_TRUE(t.Insert({Value(2), Value()}).ok());       // nullable ok
}

TEST(TableTest, IndexMaintainedAcrossCrud) {
  Table t("t", TwoColSchema(), std::make_unique<VectorRowStore>());
  ASSERT_TRUE(t.CreateIndex("t_name", {"name"}, IndexKind::kHash).ok());
  auto r1 = t.Insert({Value(1), Value("a")});
  auto r2 = t.Insert({Value(2), Value("a")});
  ASSERT_TRUE(r1.ok() && r2.ok());
  auto hits = t.LookupEq({1}, {{Value("a")}});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
  ASSERT_TRUE(t.Update(*r1, {Value(1), Value("b")}).ok());
  hits = t.LookupEq({1}, {{Value("a")}});
  EXPECT_EQ(hits->size(), 1u);
  hits = t.LookupEq({1}, {{Value("b")}});
  EXPECT_EQ(hits->size(), 1u);
  ASSERT_TRUE(t.Delete(*r2).ok());
  hits = t.LookupEq({1}, {{Value("a")}});
  EXPECT_EQ(hits->size(), 0u);
}

TEST(TableTest, UniqueIndexConflictRollsBack) {
  Table t("t", TwoColSchema(), std::make_unique<VectorRowStore>());
  ASSERT_TRUE(
      t.CreateIndex("t_pk", {"id"}, IndexKind::kHash, /*unique=*/true).ok());
  ASSERT_TRUE(t.Insert({Value(1), Value("a")}).ok());
  auto dup = t.Insert({Value(1), Value("b")});
  EXPECT_TRUE(dup.status().IsConflict());
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST(TableTest, BackfillIndexOnExistingRows) {
  Table t("t", TwoColSchema(), std::make_unique<VectorRowStore>());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value(i % 2 ? "odd" : "even")}).ok());
  }
  ASSERT_TRUE(t.CreateIndex("t_name", {"name"}, IndexKind::kHash).ok());
  auto hits = t.LookupEq({1}, {{Value("odd")}});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 5u);
}

TEST(TableTest, JsonFunctionalIndex) {
  Schema s;
  s.AddColumn("vid", ColumnType::kInt64, false);
  s.AddColumn("attr", ColumnType::kJson);
  Table t("va", std::move(s), std::make_unique<VectorRowStore>());
  auto mkattr = [](const std::string& name, int age) {
    json::JsonValue o = json::JsonValue::Object();
    o.Set("name", name);
    o.Set("age", age);
    return Value(o);
  };
  ASSERT_TRUE(t.Insert({Value(1), mkattr("marko", 29)}).ok());
  ASSERT_TRUE(t.Insert({Value(2), mkattr("vadas", 27)}).ok());
  ASSERT_TRUE(t.CreateJsonIndex("va_name", "attr", "name",
                                IndexKind::kHash).ok());
  const Index* idx = t.FindJsonIndex(1, "name", IndexKind::kHash);
  ASSERT_NE(idx, nullptr);
  std::vector<RowId> hits;
  idx->Lookup({{Value("marko")}}, &hits);
  ASSERT_EQ(hits.size(), 1u);
  Row row;
  ASSERT_TRUE(t.Get(hits[0], &row).ok());
  EXPECT_EQ(row[0].AsInt(), 1);
  // Maintained on update.
  ASSERT_TRUE(t.Update(hits[0], {Value(1), mkattr("marco", 29)}).ok());
  hits.clear();
  idx->Lookup({{Value("marko")}}, &hits);
  EXPECT_TRUE(hits.empty());
  hits.clear();
  idx->Lookup({{Value("marco")}}, &hits);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(TableTest, FindIndexDistinguishesJsonFromPlain) {
  Schema s;
  s.AddColumn("vid", ColumnType::kInt64, false);
  s.AddColumn("attr", ColumnType::kJson);
  Table t("va", std::move(s), std::make_unique<VectorRowStore>());
  ASSERT_TRUE(t.CreateJsonIndex("j", "attr", "k", IndexKind::kHash).ok());
  EXPECT_EQ(t.FindIndex({1}), nullptr);  // json index must not satisfy this
  EXPECT_NE(t.FindJsonIndex(1, "k", IndexKind::kHash), nullptr);
  EXPECT_EQ(t.FindJsonIndex(1, "other", IndexKind::kHash), nullptr);
}

// --------------------------------------------------------------- Database --

TEST(DatabaseTest, CreateGetDrop) {
  Database db;
  auto t = db.CreateTable("t", TwoColSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_NE(db.GetTable("t"), nullptr);
  EXPECT_EQ(db.GetTable("missing"), nullptr);
  EXPECT_TRUE(db.CreateTable("t", TwoColSchema()).status().code() ==
              util::StatusCode::kAlreadyExists);
  EXPECT_TRUE(db.DropTable("t").ok());
  EXPECT_EQ(db.GetTable("t"), nullptr);
  EXPECT_TRUE(db.DropTable("t").IsNotFound());
}

TEST(DatabaseTest, PagedTableUsesSharedPool) {
  Database db(1 << 20);
  auto t = db.CreateTable("p", TwoColSchema(), StorageMode::kPaged);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*t)->Insert({Value(i), Value("row")}).ok());
  }
  EXPECT_GT((*t)->SerializedBytes(), 0u);
  EXPECT_GT(db.TotalSerializedBytes(), 0u);
}

}  // namespace
}  // namespace rel
}  // namespace sqlgraph
