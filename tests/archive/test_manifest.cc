#include "archive/manifest.hh"

#include <gtest/gtest.h>

#include <string>

using namespace dnastore;
using namespace dnastore::archive;

namespace
{

ArchiveManifest
sampleManifest()
{
    ArchiveManifest m;
    m.params.codec.payload_nt = 120;
    m.params.codec.index_nt = 12;
    m.params.codec.rs_n = 60;
    m.params.codec.rs_k = 40;
    m.params.codec.scheme = LayoutScheme::Gini;
    m.params.primer_seed = 1234;
    m.params.max_shard_bytes = 512;

    ObjectEntry a;
    a.name = "alpha";
    a.id = 0;
    a.size_bytes = 700;
    a.crc32_value = 0xdeadbeef;
    a.shards = {{1, 512, 1, 60}, {2, 188, 1, 60}};
    m.objects.push_back(a);

    ObjectEntry b;
    b.name = "beta";
    b.id = 1;
    b.size_bytes = 100;
    b.crc32_value = 42;
    b.shards = {{3, 100, 1, 60}};
    m.objects.push_back(b);
    return m;
}

} // namespace

TEST(Manifest, Helpers)
{
    const ArchiveManifest m = sampleManifest();
    ASSERT_NE(m.findObject("alpha"), nullptr);
    EXPECT_EQ(m.findObject("alpha")->id, 0u);
    EXPECT_EQ(m.findObject("gamma"), nullptr);
    EXPECT_EQ(m.nextObjectId(), 2u);
    EXPECT_EQ(m.totalShards(), 3u);
    EXPECT_EQ(m.nextPairId(), 4u);
}

TEST(Manifest, JsonRoundTrip)
{
    const ArchiveManifest m = sampleManifest();
    const std::string text = manifestJson(m);

    const ManifestParseResult parsed = tryParseManifest(text);
    ASSERT_TRUE(parsed.manifest.has_value()) << parsed.error;
    const ArchiveManifest &r = *parsed.manifest;

    EXPECT_EQ(r.params.codec.payload_nt, m.params.codec.payload_nt);
    EXPECT_EQ(r.params.codec.rs_n, m.params.codec.rs_n);
    EXPECT_EQ(r.params.codec.scheme, LayoutScheme::Gini);
    EXPECT_EQ(r.params.primer_seed, m.params.primer_seed);
    EXPECT_EQ(r.params.max_shard_bytes, m.params.max_shard_bytes);

    ASSERT_EQ(r.objects.size(), 2u);
    EXPECT_EQ(r.objects[0].name, "alpha");
    EXPECT_EQ(r.objects[0].crc32_value, 0xdeadbeef);
    ASSERT_EQ(r.objects[0].shards.size(), 2u);
    EXPECT_EQ(r.objects[0].shards[1].pair_id, 2u);
    EXPECT_EQ(r.objects[0].shards[1].size_bytes, 188u);
    EXPECT_EQ(r.objects[1].shards[0].strands, 60u);

    // Canonical serialisation: re-emitting the parsed manifest is
    // byte-identical (this is also how the CRC is verified).
    EXPECT_EQ(manifestJson(r), text);
}

TEST(Manifest, EmptyManifestRoundTrips)
{
    ArchiveManifest m;
    const ManifestParseResult parsed = tryParseManifest(manifestJson(m));
    ASSERT_TRUE(parsed.manifest.has_value()) << parsed.error;
    EXPECT_TRUE(parsed.manifest->objects.empty());
    EXPECT_EQ(parsed.manifest->nextPairId(), 1u);
}

TEST(Manifest, RejectsTamperedPayload)
{
    const std::string text = manifestJson(sampleManifest());
    // Flip beta's stored object CRC (42 -> 43): still valid JSON and
    // structurally consistent, but the payload CRC no longer matches.
    std::string tampered = text;
    const std::size_t at = tampered.find("\"crc32\":42,");
    ASSERT_NE(at, std::string::npos);
    tampered[at + 9] = '3';
    const ManifestParseResult parsed = tryParseManifest(tampered);
    EXPECT_FALSE(parsed.manifest.has_value());
    EXPECT_NE(parsed.error.find("CRC"), std::string::npos) << parsed.error;

    // A flip that also breaks a cross-field invariant (alpha's
    // size_bytes 700 -> 701 no longer matches its shards) is still
    // named as corruption: the CRC is checked first.
    std::string bad_sum = text;
    const std::size_t sat = bad_sum.find("700");
    ASSERT_NE(sat, std::string::npos);
    bad_sum[sat + 2] = '1';
    const ManifestParseResult sum_parsed = tryParseManifest(bad_sum);
    EXPECT_FALSE(sum_parsed.manifest.has_value());
    EXPECT_EQ(sum_parsed.error, "manifest payload CRC mismatch");
}

TEST(Manifest, RejectsCrossFieldViolationsBehindValidCrc)
{
    // A hand-edited manifest whose CRC was recomputed (manifestJson
    // does that) passes the CRC guard and must still get the reason.
    const struct
    {
        void (*edit)(ArchiveManifest &);
        const char *expect; //!< Substring of the error message.
    } cases[] = {
        {[](ArchiveManifest &m) { m.objects[0].size_bytes = 701; },
         "'alpha': shard sizes do not sum to size_bytes"},
        {[](ArchiveManifest &m) { m.objects[1].name = "alpha"; },
         "duplicate object name: alpha"},
        // Pair ids must be the contiguous block [1, totalShards]:
        // a hole or a reused id would index past per-pair tables sized
        // from nextPairId().
        {[](ArchiveManifest &m) { m.objects[1].shards[0].pair_id = 7; },
         "out of range"},
        {[](ArchiveManifest &m) { m.objects[1].shards[0].pair_id = 1; },
         "addresses two shards"},
    };
    for (const auto &c : cases) {
        ArchiveManifest edited = sampleManifest();
        c.edit(edited);
        const ManifestParseResult parsed =
            tryParseManifest(manifestJson(edited));
        EXPECT_FALSE(parsed.manifest.has_value()) << c.expect;
        EXPECT_NE(parsed.error.find(c.expect), std::string::npos)
            << "error: " << parsed.error;
    }
}

TEST(Manifest, RejectsWrongSchemaAndVersion)
{
    const std::string text = manifestJson(sampleManifest());

    std::string wrong_schema = text;
    const std::size_t at = wrong_schema.find("archive_manifest");
    ASSERT_NE(at, std::string::npos);
    wrong_schema.replace(at, 16, "something_else__");
    EXPECT_FALSE(tryParseManifest(wrong_schema).manifest.has_value());

    std::string wrong_version = text;
    const std::size_t vat = wrong_version.find("\"schema_version\":1");
    ASSERT_NE(vat, std::string::npos);
    wrong_version.replace(vat, 18, "\"schema_version\":9");
    EXPECT_FALSE(tryParseManifest(wrong_version).manifest.has_value());
}

TEST(Manifest, RejectsGarbageAndTruncation)
{
    EXPECT_FALSE(tryParseManifest("").manifest.has_value());
    EXPECT_FALSE(tryParseManifest("not json").manifest.has_value());
    EXPECT_FALSE(tryParseManifest("{}").manifest.has_value());

    const std::string text = manifestJson(sampleManifest());
    const std::string truncated = text.substr(0, text.size() / 2);
    EXPECT_FALSE(tryParseManifest(truncated).manifest.has_value());
}

TEST(Manifest, ParseErrorsAreDescriptive)
{
    const ManifestParseResult parsed = tryParseManifest("{}");
    EXPECT_FALSE(parsed.error.empty());
}

TEST(Manifest, AllSchemesRoundTrip)
{
    for (const LayoutScheme scheme :
         {LayoutScheme::Baseline, LayoutScheme::Gini,
          LayoutScheme::DNAMapper}) {
        ArchiveManifest m;
        m.params.codec.scheme = scheme;
        const ManifestParseResult parsed =
            tryParseManifest(manifestJson(m));
        ASSERT_TRUE(parsed.manifest.has_value()) << parsed.error;
        EXPECT_EQ(parsed.manifest->params.codec.scheme, scheme);
    }
}

namespace
{

/** Wrap a payload in the document skeleton.  Kind and range errors are
 *  rejected before CRC verification, so crc32 can stay 0. */
std::string
docWithPayload(const std::string &payload)
{
    return "{\"crc32\":0,\"payload\":" + payload +
           ",\"schema\":\"dnastore.archive_manifest\","
           "\"schema_version\":1}";
}

const char *const kGoodCodec =
    R"({"index_nt":12,"payload_nt":120,"randomizer_seed":1,)"
    R"("rs_k":40,"rs_n":60,"scheme":"gini"})";
const char *const kGoodPrimer =
    R"({"length":20,"max_gc":0.6,"max_homopolymer":3,)"
    R"("min_gc":0.4,"min_hamming":8})";

/** A params section with the given codec/primer snippets spliced in. */
std::string
paramsWith(const std::string &codec, const std::string &primer,
           const std::string &tail =
               R"("max_shard_bytes":512,"primer_seed":1)")
{
    return "{\"codec\":" + codec + ",\"primer\":" + primer + "," + tail +
           "}";
}

std::string
payloadWith(const std::string &objects, const std::string &params)
{
    return "{\"objects\":" + objects + ",\"params\":" + params + "}";
}

} // namespace

TEST(Manifest, RejectsStructuralViolations)
{
    const std::string good_params = paramsWith(kGoodCodec, kGoodPrimer);
    const struct
    {
        std::string payload;
        const char *expect; //!< Substring of the error message.
    } cases[] = {
        {"{\"objects\":[]}", "params"},
        {payloadWith("[]", "17"), "params"},
        {payloadWith("[]", "{}"), "codec/primer"},
        {payloadWith("[]",
                     paramsWith(R"({"index_nt":"x"})", kGoodPrimer)),
         "not a non-negative integer"},
        {payloadWith(
             "[]",
             paramsWith(
                 R"({"index_nt":12,"payload_nt":120,)"
                 R"("randomizer_seed":1,"rs_k":40,"rs_n":60})",
                 kGoodPrimer)),
         "scheme"},
        {payloadWith(
             "[]",
             paramsWith(
                 R"({"index_nt":12,"payload_nt":120,)"
                 R"("randomizer_seed":1,"rs_k":40,"rs_n":60,)"
                 R"("scheme":"turbo"})",
                 kGoodPrimer)),
         "unknown codec scheme"},
        {payloadWith("[]", paramsWith(kGoodCodec, R"({"length":20})")),
         "missing field"},
        {payloadWith("[]",
                     paramsWith(kGoodCodec,
                                R"({"length":20,"max_gc":"high",)"
                                R"("max_homopolymer":3,"min_gc":0.4,)"
                                R"("min_hamming":8})")),
         "not a number"},
        {payloadWith("[]",
                     paramsWith(kGoodCodec, kGoodPrimer,
                                R"("max_shard_bytes":0,)"
                                R"("primer_seed":1)")),
         "max_shard_bytes must be positive"},
        {payloadWith("[]", paramsWith(kGoodCodec, kGoodPrimer,
                                      R"("max_shard_bytes":512)")),
         "primer_seed"},
        {"{\"params\":" + good_params + "}", "objects"},
        {payloadWith(R"([{"crc32":1,"id":0,"size_bytes":0,)"
                     R"("shards":[]}])",
                     good_params),
         "name"},
        {payloadWith(R"([{"name":"x","crc32":1,"size_bytes":0,)"
                     R"("shards":[]}])",
                     good_params),
         "missing field: id"},
        {payloadWith(R"([{"name":"x","crc32":5000000000,"id":0,)"
                     R"("size_bytes":0,"shards":[]}])",
                     good_params),
         "32-bit range"},
        {payloadWith(R"([{"name":"x","crc32":1,"id":0,)"
                     R"("size_bytes":0}])",
                     good_params),
         "shards array"},
        {payloadWith(R"([{"name":"x","crc32":1,"id":0,"size_bytes":9,)"
                     R"("shards":[{"pair_id":0,"size_bytes":9,)"
                     R"("strands":60,"units":1}]}])",
                     good_params),
         "reserved"},
        {payloadWith(R"([{"name":"x","crc32":1,"id":0,"size_bytes":9,)"
                     R"("shards":[{"pair_id":1,"size_bytes":9,)"
                     R"("strands":60}]}])",
                     good_params),
         "missing field: units"},
    };

    for (const auto &c : cases) {
        const ManifestParseResult parsed =
            tryParseManifest(docWithPayload(c.payload));
        EXPECT_FALSE(parsed.manifest.has_value()) << c.payload;
        EXPECT_NE(parsed.error.find(c.expect), std::string::npos)
            << "payload: " << c.payload << "\nerror: " << parsed.error;
    }
}
