// Tests for src/graph: property graph model, RDF conversion, generators.

#include <set>
#include <string>
#include <tuple>

#include "graph/dbpedia_gen.h"
#include "graph/linkbench_gen.h"
#include "graph/property_graph.h"
#include "graph/rdf.h"
#include "gtest/gtest.h"

namespace sqlgraph {
namespace graph {
namespace {

TEST(PropertyGraphTest, AddVertexEdge) {
  PropertyGraph g;
  json::JsonValue a = json::JsonValue::Object();
  a.Set("name", "marko");
  const VertexId v1 = g.AddVertex(std::move(a));
  const VertexId v2 = g.AddVertex();
  auto e = g.AddEdge(v1, v2, "knows");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(g.NumVertices(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.edge(*e).src, v1);
  EXPECT_EQ(g.edge(*e).dst, v2);
  EXPECT_EQ(g.OutEdges(v1).size(), 1u);
  EXPECT_EQ(g.InEdges(v2).size(), 1u);
  EXPECT_TRUE(g.OutEdges(v2).empty());
  EXPECT_EQ(g.vertex(v1).attrs.Find("name")->AsString(), "marko");
}

TEST(PropertyGraphTest, EdgeToMissingVertexFails) {
  PropertyGraph g;
  const VertexId v = g.AddVertex();
  EXPECT_FALSE(g.AddEdge(v, 99, "x").ok());
  EXPECT_FALSE(g.AddEdge(-1, v, "x").ok());
}

TEST(PropertyGraphTest, LabelHistogram) {
  PropertyGraph g;
  const VertexId a = g.AddVertex(), b = g.AddVertex();
  ASSERT_TRUE(g.AddEdge(a, b, "knows").ok());
  ASSERT_TRUE(g.AddEdge(a, b, "knows").ok());
  ASSERT_TRUE(g.AddEdge(b, a, "likes").ok());
  auto hist = g.LabelHistogram();
  EXPECT_EQ(hist["knows"], 2u);
  EXPECT_EQ(hist["likes"], 1u);
}

TEST(RdfTest, UriLocalName) {
  EXPECT_EQ(UriLocalName("http://dbpedia.org/ontology/team"), "team");
  EXPECT_EQ(UriLocalName("http://x.org/ns#label"), "label");
  EXPECT_EQ(UriLocalName("plain"), "plain");
}

TEST(RdfTest, ConversionRules) {
  // Fig. 1: Aristotle --birthplace--> Stagira, plus literal attributes and
  // quad context on the edge.
  PropertyGraph g;
  RdfToPropertyGraph conv(&g);
  Quad t1;
  t1.subject = "http://dbpedia.org/resource/Aristotle";
  t1.predicate = "http://dbpedia.org/ontology/birthplace";
  t1.object_resource = "http://dbpedia.org/resource/Stagira";
  json::JsonValue ctx = json::JsonValue::Object();
  ctx.Set("oldid", int64_t{49417695});
  ctx.Set("section", "External_link");
  t1.context = ctx;
  ASSERT_TRUE(conv.Add(t1).ok());

  Quad t2;
  t2.subject = "http://dbpedia.org/resource/Aristotle";
  t2.predicate = "http://dbpedia.org/property/description";
  t2.object_is_literal = true;
  t2.object_literal = json::JsonValue("philosopher");
  ASSERT_TRUE(conv.Add(t2).ok());

  EXPECT_EQ(g.NumVertices(), 2u);  // rule (a): resources become vertices
  EXPECT_EQ(g.NumEdges(), 1u);     // rule (b): object property → edge
  const VertexId ari = conv.Find("http://dbpedia.org/resource/Aristotle");
  ASSERT_GE(ari, 0);
  // Rule (c): datatype property → vertex attribute.
  EXPECT_EQ(g.vertex(ari).attrs.Find("description")->AsString(),
            "philosopher");
  // Every vertex keeps its uri.
  EXPECT_EQ(g.vertex(ari).attrs.Find("uri")->AsString(),
            "http://dbpedia.org/resource/Aristotle");
  // Rule (d): quad context → edge attributes.
  const Edge& e = g.edges()[0];
  EXPECT_EQ(e.label, "birthplace");
  EXPECT_EQ(e.attrs.Find("oldid")->AsInt(), 49417695);
  EXPECT_EQ(e.attrs.Find("section")->AsString(), "External_link");
}

TEST(RdfTest, RepeatedDatatypePropertyBecomesArray) {
  PropertyGraph g;
  RdfToPropertyGraph conv(&g);
  for (const char* genre : {"Rock", "Jazz", "Pop"}) {
    Quad q;
    q.subject = "http://x/e";
    q.predicate = "http://x/genre";
    q.object_is_literal = true;
    q.object_literal = json::JsonValue(genre);
    ASSERT_TRUE(conv.Add(q).ok());
  }
  const json::JsonValue* genres = g.vertex(0).attrs.Find("genre");
  ASSERT_NE(genres, nullptr);
  ASSERT_TRUE(genres->is_array());
  EXPECT_EQ(genres->AsArray().size(), 3u);
}

class DbpediaGenTest : public ::testing::Test {
 protected:
  static const PropertyGraph& Graph() {
    static PropertyGraph* g = [] {
      DbpediaConfig cfg;
      cfg.scale = 0.02;  // small but structurally complete
      return new PropertyGraph(DbpediaGenerator(cfg).Generate());
    }();
    return *g;
  }
};

TEST_F(DbpediaGenTest, Deterministic) {
  DbpediaConfig cfg;
  cfg.scale = 0.005;
  PropertyGraph a = DbpediaGenerator(cfg).Generate();
  PropertyGraph b = DbpediaGenerator(cfg).Generate();
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (size_t i = 0; i < a.NumEdges(); i += 37) {
    EXPECT_EQ(a.edges()[i].src, b.edges()[i].src);
    EXPECT_EQ(a.edges()[i].label, b.edges()[i].label);
  }
}

TEST_F(DbpediaGenTest, HasExpectedStructure) {
  const PropertyGraph& g = Graph();
  EXPECT_GT(g.NumVertices(), 1000u);
  EXPECT_GT(g.NumEdges(), 2000u);
  auto hist = g.LabelHistogram();
  EXPECT_GT(hist["isPartOf"], 100u);
  EXPECT_GT(hist["team"], 100u);
}

TEST_F(DbpediaGenTest, QueryTagsPresent) {
  const PropertyGraph& g = Graph();
  size_t leaves = 0, b100 = 0, t1 = 0;
  for (const auto& v : g.vertices()) {
    if (v.attrs.Find("qleaf")) ++leaves;
    if (v.attrs.Find("qb100")) ++b100;
    if (v.attrs.Find("qt1")) ++t1;
  }
  EXPECT_GT(leaves, 100u);
  EXPECT_GT(b100, 0u);
  EXPECT_LT(b100, leaves);
  EXPECT_EQ(t1, 1u);
}

TEST_F(DbpediaGenTest, EdgesCarryProvenanceAttrs) {
  const PropertyGraph& g = Graph();
  size_t with_provenance = 0;
  for (size_t i = 0; i < g.NumEdges(); i += 11) {
    const Edge& e = g.edges()[i];
    if (e.attrs.Find("oldid") && e.attrs.Find("section") &&
        e.attrs.Find("relative-line")) {
      ++with_provenance;
    }
  }
  EXPECT_GT(with_provenance, g.NumEdges() / 11 - 2);
}

TEST_F(DbpediaGenTest, AttributeSelectivityOrdering) {
  const PropertyGraph& g = Graph();
  size_t label = 0, title = 0, national = 0, wiki = 0;
  for (const auto& v : g.vertices()) {
    if (v.attrs.Find("label")) ++label;
    if (v.attrs.Find("title")) ++title;
    if (v.attrs.Find("national")) ++national;
    if (v.attrs.Find("wikiPageID")) ++wiki;
  }
  // Table 2 selectivity: label/wikiPageID on everything, title rare,
  // national rarer.
  EXPECT_EQ(label, g.NumVertices());
  EXPECT_EQ(wiki, g.NumVertices());
  EXPECT_GT(title, 0u);
  EXPECT_LT(title, label / 10);
  EXPECT_GT(national, 0u);
  EXPECT_LT(national, title);
}

TEST_F(DbpediaGenTest, IsPartOfReachesRootWithinLevels) {
  const PropertyGraph& g = Graph();
  // Follow isPartOf from any leaf: must terminate within the level count.
  VertexId leaf = -1;
  for (const auto& v : g.vertices()) {
    if (v.attrs.Find("qleaf")) {
      leaf = v.id;
      break;
    }
  }
  ASSERT_GE(leaf, 0);
  std::set<VertexId> frontier{leaf};
  int hops = 0;
  while (!frontier.empty() && hops < 15) {
    std::set<VertexId> next;
    for (VertexId v : frontier) {
      for (EdgeId e : g.OutEdges(v)) {
        if (g.edge(e).label == "isPartOf") next.insert(g.edge(e).dst);
      }
    }
    frontier = std::move(next);
    ++hops;
  }
  EXPECT_TRUE(frontier.empty());  // reached the roots
  EXPECT_GE(hops, 8);             // deep enough for 9-hop queries
}

TEST(LinkBenchGenTest, GraphShape) {
  LinkBenchConfig cfg;
  cfg.num_objects = 2000;
  PropertyGraph g = GenerateLinkBenchGraph(cfg);
  EXPECT_EQ(g.NumVertices(), 2000u);
  const double avg =
      static_cast<double>(g.NumEdges()) / static_cast<double>(g.NumVertices());
  EXPECT_NEAR(avg, cfg.avg_degree, 1.5);
  // Attributes per §5.2 mapping.
  const auto& attrs = g.vertex(0).attrs;
  EXPECT_NE(attrs.Find("type"), nullptr);
  EXPECT_NE(attrs.Find("version"), nullptr);
  EXPECT_NE(attrs.Find("time"), nullptr);
  EXPECT_NE(attrs.Find("data"), nullptr);
  const auto& eattrs = g.edges()[0].attrs;
  EXPECT_NE(eattrs.Find("visibility"), nullptr);
  EXPECT_NE(eattrs.Find("timestamp"), nullptr);
  EXPECT_NE(eattrs.Find("data"), nullptr);
}

TEST(LinkBenchGenTest, DegreeSkew) {
  LinkBenchConfig cfg;
  cfg.num_objects = 5000;
  PropertyGraph g = GenerateLinkBenchGraph(cfg);
  size_t max_in = 0;
  for (const auto& v : g.vertices()) {
    max_in = std::max(max_in, g.InEdges(v.id).size());
  }
  // Zipf destinations → clear hot spots.
  EXPECT_GT(max_in, 5 * cfg.avg_degree);
}

TEST(LinkBenchGenTest, NoLinkKeyRepeats) {
  // LinkBench keys a link by (id1, link type, id2); the Zipf-skewed draws
  // repeat keys often at this size, and each repeat must be skipped.
  LinkBenchConfig cfg;
  cfg.num_objects = 50000;
  PropertyGraph g = GenerateLinkBenchGraph(cfg);
  std::set<std::tuple<VertexId, std::string, VertexId>> keys;
  for (const auto& e : g.edges()) {
    EXPECT_TRUE(keys.emplace(e.src, e.label, e.dst).second)
        << e.src << " " << e.label << " " << e.dst;
  }
  EXPECT_EQ(keys.size(), g.NumEdges());
  EXPECT_GT(g.NumEdges(), 4 * cfg.num_objects);
}

TEST(LinkBenchWorkloadTest, MixMatchesTable6) {
  LinkBenchConfig cfg;
  cfg.num_objects = 1000;
  LinkBenchWorkload w(cfg, 1);
  std::array<size_t, 10> counts{};
  const size_t n = 200000;
  for (size_t i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(w.Next().op)];
  }
  for (int k = 0; k < 10; ++k) {
    const double expected = kLinkBenchOpMix[k] / 100.0;
    const double actual = static_cast<double>(counts[k]) / n;
    EXPECT_NEAR(actual, expected, 0.01)
        << LinkBenchOpName(static_cast<LinkBenchOp>(k));
  }
}

TEST(LinkBenchWorkloadTest, DeterministicPerSeed) {
  LinkBenchConfig cfg;
  LinkBenchWorkload a(cfg, 7), b(cfg, 7), c(cfg, 8);
  bool all_same_c = true;
  for (int i = 0; i < 100; ++i) {
    auto ra = a.Next(), rb = b.Next(), rc = c.Next();
    EXPECT_EQ(static_cast<int>(ra.op), static_cast<int>(rb.op));
    EXPECT_EQ(ra.id1, rb.id1);
    all_same_c = all_same_c && ra.id1 == rc.id1 &&
                 static_cast<int>(ra.op) == static_cast<int>(rc.op);
  }
  EXPECT_FALSE(all_same_c);  // different requesters differ
}

}  // namespace
}  // namespace graph
}  // namespace sqlgraph
