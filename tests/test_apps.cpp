/**
 * @file
 * Corpus registry tests: the expanded application set behind
 * allApps() — size and composition (≥ 24 apps, the paper's twelve
 * intact behind the "paper" tag), per-family selection via
 * appsByTag(), resolvable companion lists forming the §3.4 network
 * contexts, and the appByName() unknown-name error path.
 */
#include <gtest/gtest.h>

#include <set>

#include "support/util.h"
#include "tinyos/tinyos.h"

namespace stos {
namespace {

using namespace stos::tinyos;

TEST(AppRegistry, CorpusIsAtLeastTwiceThePaperSuite)
{
    EXPECT_GE(allApps().size(), 24u)
        << "the expanded corpus must double the paper's twelve";
    EXPECT_EQ(paperApps().size(), 12u)
        << "the paper subset must stay exactly the original twelve";
}

TEST(AppRegistry, NamesAreUniqueAndNonEmpty)
{
    std::set<std::string> names;
    for (const auto &app : allApps()) {
        EXPECT_FALSE(app.name.empty());
        EXPECT_FALSE(app.source.empty()) << app.name;
        EXPECT_TRUE(app.platform == "Mica2" || app.platform == "TelosB")
            << app.name << ": " << app.platform;
        EXPECT_TRUE(names.insert(app.name).second)
            << "duplicate app name " << app.name;
    }
}

TEST(AppRegistry, EveryAppHasAFamily)
{
    for (const auto &app : allApps())
        EXPECT_FALSE(app.family.empty()) << app.name;
}

TEST(AppRegistry, ExpandedFamiliesArePopulated)
{
    // The scenario families that close the gaps in the paper suite
    // (multi-hop forwarding, aggregation, low duty cycle, flooding,
    // UART-heavy logging, safety-check stress).
    for (const char *family :
         {"routing", "aggregation", "lowpower", "dissemination",
          "logging", "stress"}) {
        EXPECT_GE(appsByTag(family).size(), 2u) << family;
    }
    EXPECT_GE(appsByTag("routing").size(), 3u)
        << "Surge + the relay family";
    // appsByTag matches the family field and the tag list alike.
    EXPECT_EQ(appsByTag("paper").size(), 12u);
    for (const auto &app : appsByTag("routing"))
        EXPECT_EQ(app.family, "routing") << app.name;
}

TEST(AppRegistry, CompanionsResolveAndFormMultiMoteContexts)
{
    size_t withCompanions = 0;
    for (const auto &app : allApps()) {
        for (const auto &cname : app.companions) {
            const AppInfo &comp = appByName(cname);  // throws if bad
            EXPECT_EQ(comp.name, cname);
        }
        withCompanions += app.companions.empty() ? 0 : 1;
    }
    EXPECT_GE(withCompanions, 14u)
        << "most of the corpus should simulate in a network context";
}

TEST(AppRegistry, PaperAppsKeepTheirCompanionNetworks)
{
    EXPECT_EQ(appByName("Surge").companions,
              (std::vector<std::string>{"Surge", "GenericBase"}));
    EXPECT_EQ(appByName("Ident").companions,
              (std::vector<std::string>{"CntToLedsAndRfm"}));
    EXPECT_TRUE(appByName("BlinkTask").companions.empty());
}

TEST(AppRegistry, AppByNameThrowsOnUnknownName)
{
    EXPECT_THROW(appByName("NoSuchApplication"), InternalError);
    try {
        appByName("NoSuchApplication");
        FAIL() << "expected InternalError";
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("NoSuchApplication"),
                  std::string::npos)
            << "the error must name the missing app";
    }
}

TEST(AppRegistry, HasTagMatchesFamilyAndTagList)
{
    AppInfo a{"x", "Mica2", "void main() { }", {}, "routing", {"paper"}};
    EXPECT_TRUE(a.hasTag("routing"));
    EXPECT_TRUE(a.hasTag("paper"));
    EXPECT_FALSE(a.hasTag("logging"));
}

} // namespace
} // namespace stos
