#include "xml/document.h"

#include <gtest/gtest.h>

#include "xml/name_pool.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace flix::xml {
namespace {

TEST(NamePoolTest, InternReturnsStableIds) {
  NamePool pool;
  const TagId a = pool.Intern("alpha");
  const TagId b = pool.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("alpha"), a);
  EXPECT_EQ(pool.Name(a), "alpha");
  EXPECT_EQ(pool.Name(b), "beta");
  EXPECT_EQ(pool.size(), 2u);
}

TEST(NamePoolTest, LookupWithoutIntern) {
  NamePool pool;
  EXPECT_EQ(pool.Lookup("nope"), kInvalidTag);
  pool.Intern("yes");
  EXPECT_EQ(pool.Lookup("yes"), 0u);
}

TEST(NamePoolTest, ManyNamesNoDangling) {
  // Regression: interned short names must survive pool growth (SSO buffers
  // move if stored in a reallocating vector).
  NamePool pool;
  for (int i = 0; i < 5000; ++i) {
    pool.Intern(std::string("t").append(std::to_string(i)));
  }
  for (int i = 0; i < 5000; ++i) {
    const std::string name = std::string("t").append(std::to_string(i));
    EXPECT_EQ(pool.Lookup(name), static_cast<TagId>(i));
    EXPECT_EQ(pool.Name(i), name);
  }
}

TEST(DocumentTest, BuildProgrammatically) {
  NamePool pool;
  Document doc("mydoc");
  const ElementId root = doc.AddElement(pool.Intern("a"), kInvalidElement);
  const ElementId child = doc.AddElement(pool.Intern("b"), root);
  const ElementId grand = doc.AddElement(pool.Intern("c"), child);
  EXPECT_EQ(doc.name(), "mydoc");
  EXPECT_EQ(doc.root(), root);
  EXPECT_EQ(doc.NumElements(), 3u);
  EXPECT_EQ(doc.element(child).parent, root);
  EXPECT_EQ(doc.Depth(root), 0);
  EXPECT_EQ(doc.Depth(child), 1);
  EXPECT_EQ(doc.Depth(grand), 2);
}

TEST(DocumentTest, EmptyDocumentHasNoRoot) {
  Document doc("empty");
  EXPECT_EQ(doc.root(), kInvalidElement);
}

TEST(DocumentTest, AnchorRegistration) {
  NamePool pool;
  Document doc("d");
  const ElementId root = doc.AddElement(pool.Intern("a"), kInvalidElement);
  doc.RegisterAnchor("k1", root);
  EXPECT_EQ(doc.FindAnchor("k1"), root);
  // First registration wins.
  const ElementId child = doc.AddElement(pool.Intern("b"), root);
  doc.RegisterAnchor("k1", child);
  EXPECT_EQ(doc.FindAnchor("k1"), root);
}

TEST(SerializerTest, RoundTripSimple) {
  NamePool pool;
  StatusOr<Document> doc = ParseDocument(
      R"(<a x="1"><b>text &amp; more</b><c y="q&quot;z"/></a>)", "t", pool);
  ASSERT_TRUE(doc.ok());
  const std::string serialized = Serialize(*doc, pool);
  StatusOr<Document> again = ParseDocument(serialized, "t2", pool);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->NumElements(), doc->NumElements());
  for (ElementId i = 0; i < doc->NumElements(); ++i) {
    EXPECT_EQ(again->element(i).tag, doc->element(i).tag);
    EXPECT_EQ(again->element(i).parent, doc->element(i).parent);
    EXPECT_EQ(again->element(i).text, doc->element(i).text);
    EXPECT_EQ(again->element(i).attributes, doc->element(i).attributes);
  }
}

TEST(SerializerTest, EscapesSpecialCharacters) {
  EXPECT_EQ(EscapeXml("<&>\"'"), "&lt;&amp;&gt;&quot;&apos;");
  EXPECT_EQ(EscapeXml("plain"), "plain");
}

TEST(SerializerTest, CompactMode) {
  NamePool pool;
  Document doc("d");
  const ElementId root = doc.AddElement(pool.Intern("a"), kInvalidElement);
  doc.AddElement(pool.Intern("b"), root);
  SerializeOptions options;
  options.pretty = false;
  const std::string out = Serialize(doc, pool, options);
  EXPECT_EQ(out, "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a><b/></a>");
}

TEST(DocumentTest, MemoryBytesGrowsWithContent) {
  NamePool pool;
  Document small("s");
  small.AddElement(pool.Intern("a"), kInvalidElement);
  Document large("l");
  const ElementId root = large.AddElement(pool.Intern("a"), kInvalidElement);
  for (int i = 0; i < 100; ++i) {
    const ElementId e = large.AddElement(pool.Intern("b"), root);
    large.element(e).text = "some text content here";
  }
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
}

}  // namespace
}  // namespace flix::xml
