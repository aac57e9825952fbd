// Tests for the SQL frontend: lexer, parser, binder/planner — executed
// against an in-memory column store so they are independent of the raw
// layer.

#include <gtest/gtest.h>

#include <map>

#include "exec/column_store.h"
#include "exec/query_result.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "types/date_util.h"

namespace nodb {
namespace {

// ------------------------------------------------------------------- lexer

TEST(LexerTest, TokenKinds) {
  auto tokens = LexSql("SELECT a1, 42, 1.5, 'it''s' <> <= FROM t;");
  ASSERT_TRUE(tokens.ok());
  auto& t = *tokens;
  EXPECT_EQ(t[0].type, TokenType::kIdentifier);
  EXPECT_EQ(t[0].text, "SELECT");
  EXPECT_EQ(t[1].text, "a1");
  EXPECT_EQ(t[3].type, TokenType::kInteger);
  EXPECT_EQ(t[5].type, TokenType::kFloat);
  EXPECT_EQ(t[7].type, TokenType::kString);
  EXPECT_EQ(t[7].literal, "it's");
  EXPECT_EQ(t[8].text, "<>");
  EXPECT_EQ(t[9].text, "<=");
  EXPECT_EQ(t.back().type, TokenType::kEnd);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(LexSql("SELECT 'unterminated").ok());
  EXPECT_FALSE(LexSql("SELECT @a").ok());
}

// ------------------------------------------------------------------ parser

TEST(ParserTest, FullSelect) {
  auto stmt = ParseSelect(
      "SELECT a, b AS bee, COUNT(*) AS n FROM t WHERE a > 5 AND b < 3 "
      "GROUP BY a, b ORDER BY n DESC LIMIT 10 OFFSET 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->items.size(), 3u);
  EXPECT_EQ(stmt->items[1].alias, "bee");
  EXPECT_EQ(stmt->items[2].expr->kind, ParsedExpr::Kind::kAggregate);
  EXPECT_EQ(stmt->from_table, "t");
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->where->kind, ParsedExpr::Kind::kLogical);
  EXPECT_EQ(stmt->group_by.size(), 2u);
  ASSERT_EQ(stmt->order_by.size(), 1u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_EQ(*stmt->limit, 10u);
  EXPECT_EQ(stmt->offset, 2u);
}

TEST(ParserTest, SelectStarAndAliases) {
  auto stmt = ParseSelect("SELECT * FROM lineitem l");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->select_star);
  EXPECT_EQ(stmt->from_alias, "l");
}

TEST(ParserTest, JoinClause) {
  auto stmt = ParseSelect(
      "SELECT l.a, o.b FROM lineitem l JOIN orders o ON l.k = o.k "
      "WHERE l.a > 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt->has_join);
  EXPECT_EQ(stmt->join_table, "orders");
  EXPECT_EQ(stmt->join_alias, "o");
  ASSERT_NE(stmt->join_condition, nullptr);
  EXPECT_EQ(stmt->join_condition->kind, ParsedExpr::Kind::kCompare);
}

TEST(ParserTest, BetweenDesugarsToConjunction) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE a BETWEEN 2 AND 5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->kind, ParsedExpr::Kind::kLogical);
  EXPECT_EQ(stmt->where->logic, LogicalOp::kAnd);
  EXPECT_EQ(stmt->where->left->cmp, CompareOp::kGe);
  EXPECT_EQ(stmt->where->right->cmp, CompareOp::kLe);
}

TEST(ParserTest, InListDesugarsToOrs) {
  auto stmt = ParseSelect("SELECT a FROM t WHERE a IN (1, 2, 3)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->kind, ParsedExpr::Kind::kLogical);
  EXPECT_EQ(stmt->where->logic, LogicalOp::kOr);
}

TEST(ParserTest, NotLikeAndIsNull) {
  auto stmt = ParseSelect(
      "SELECT a FROM t WHERE name NOT LIKE 'x%' AND b IS NOT NULL");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto& both = *stmt->where;
  EXPECT_EQ(both.left->kind, ParsedExpr::Kind::kLike);
  EXPECT_TRUE(both.left->negated);
  EXPECT_EQ(both.right->kind, ParsedExpr::Kind::kIsNull);
  EXPECT_TRUE(both.right->negated);
}

TEST(ParserTest, DateLiteralAndUnaryMinus) {
  auto stmt = ParseSelect(
      "SELECT a FROM t WHERE d >= DATE '1994-01-01' AND a > -5");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt->where->left->right->value.is_date());
  EXPECT_EQ(stmt->where->right->right->value, Value::Int64(-5));
}

TEST(ParserTest, OperatorPrecedence) {
  // a + b * 2 parses as a + (b * 2); AND binds tighter than OR.
  auto stmt = ParseSelect("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->logic, LogicalOp::kOr);
  EXPECT_EQ(stmt->where->right->logic, LogicalOp::kAnd);
  auto arith = ParseSelect("SELECT a + b * 2 FROM t");
  ASSERT_TRUE(arith.ok());
  EXPECT_EQ(arith->items[0].expr->arith, ArithOp::kAdd);
  EXPECT_EQ(arith->items[0].expr->right->arith, ArithOp::kMul);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELEC a FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra garbage +").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t JOIN u").ok());  // missing ON
}

// ----------------------------------------------------------------- planner

/// Planner tests run over hand-built in-memory tables.
class PlannerTest : public ::testing::Test, public ScanFactory {
 protected:
  void SetUp() override {
    auto people = Schema::Make({{"id", DataType::kInt64},
                                {"name", DataType::kString},
                                {"age", DataType::kInt64},
                                {"joined", DataType::kDate}});
    people_ = std::make_shared<ColumnStoreTable>(people);
    struct P {
      int64_t id;
      const char* name;
      int64_t age;
      const char* joined;
    };
    P rows[] = {{1, "ada", 30, "2001-05-01"},
                {2, "bob", 25, "2003-07-12"},
                {3, "carol", 35, "1999-01-30"},
                {4, "dave", 25, "2005-11-03"}};
    for (const auto& r : rows) {
      people_->column(0).AppendInt64(r.id);
      people_->column(1).AppendString(r.name);
      people_->column(2).AppendInt64(r.age);
      people_->column(3).AppendDate(*ParseDateForTest(r.joined));
    }
    people_->SetNumRows(4);

    auto pets = Schema::Make({{"owner", DataType::kInt64},
                              {"pet", DataType::kString}});
    pets_ = std::make_shared<ColumnStoreTable>(pets);
    struct Q {
      int64_t owner;
      const char* pet;
    };
    Q qs[] = {{1, "cat"}, {1, "dog"}, {3, "fish"}, {9, "rock"}};
    for (const auto& q : qs) {
      pets_->column(0).AppendInt64(q.owner);
      pets_->column(1).AppendString(q.pet);
    }
    pets_->SetNumRows(4);
  }

  static Result<int64_t> ParseDateForTest(const char* s);

  Result<std::shared_ptr<Schema>> TableSchema(
      const std::string& table) override {
    if (table == "people") return people_->schema();
    if (table == "pets") return pets_->schema();
    return Status::NotFound("no table " + table);
  }

  Result<OperatorPtr> CreateScan(
      const std::string& table,
      const std::vector<size_t>& projection) override {
    last_projection_[table] = projection;
    if (table == "people") {
      return OperatorPtr(
          std::make_unique<ColumnStoreScan>(people_, projection));
    }
    if (table == "pets") {
      return OperatorPtr(
          std::make_unique<ColumnStoreScan>(pets_, projection));
    }
    return Status::NotFound("no table " + table);
  }

  Result<OperatorPtr> CreatePushdownScan(
      const std::string& table, const std::vector<size_t>& projection,
      ScanPushdown* pushdown) override {
    last_row_limit_[table] = pushdown->row_limit;
    return CreateScan(table, projection);
  }

  /// The row limit the planner offered to `table`'s scan for `sql`.
  uint64_t RowLimitFor(const std::string& sql,
                       const std::string& table = "people") {
    last_row_limit_.clear();
    EXPECT_TRUE(Run(sql).ok()) << sql;
    return last_row_limit_.at(table);
  }

  Result<QueryResult> Run(const std::string& sql) {
    NODB_ASSIGN_OR_RETURN(auto plan, PlanSql(sql, this));
    return QueryResult::Drain(plan.get());
  }

  std::shared_ptr<ColumnStoreTable> people_;
  std::shared_ptr<ColumnStoreTable> pets_;
  std::map<std::string, std::vector<size_t>> last_projection_;
  std::map<std::string, uint64_t> last_row_limit_;
};

Result<int64_t> PlannerTest::ParseDateForTest(const char* s) {
  return ParseDate(s);
}

TEST_F(PlannerTest, SimpleProjection) {
  auto result = Run("SELECT name FROM people WHERE age = 25");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rows = result->CanonicalRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], "bob");
  EXPECT_EQ(rows[1], "dave");
}

TEST_F(PlannerTest, RequiredColumnAnalysisPrunesScan) {
  ASSERT_TRUE(Run("SELECT name FROM people WHERE age = 25").ok());
  // Only name (1) and age (2) should be scanned.
  EXPECT_EQ(last_projection_["people"], (std::vector<size_t>{1, 2}));
  ASSERT_TRUE(Run("SELECT COUNT(*) FROM people").ok());
  EXPECT_TRUE(last_projection_["people"].empty());
}

TEST_F(PlannerTest, SelectStar) {
  auto result = Run("SELECT * FROM people WHERE id = 3");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->schema()->num_fields(), 4u);
  EXPECT_EQ(result->Row(0)[1], Value::String("carol"));
}

TEST_F(PlannerTest, AggregateWithGroupBy) {
  auto result = Run(
      "SELECT age, COUNT(*) AS n, MIN(name) AS first FROM people "
      "GROUP BY age ORDER BY age");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->Row(0)[0], Value::Int64(25));
  EXPECT_EQ(result->Row(0)[1], Value::Int64(2));
  EXPECT_EQ(result->Row(0)[2], Value::String("bob"));
  EXPECT_EQ(result->Row(2)[0], Value::Int64(35));
}

TEST_F(PlannerTest, AggregateOverExpression) {
  auto result = Run("SELECT SUM(age * 2) AS s FROM people");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->Row(0)[0], Value::Int64(230));
}

TEST_F(PlannerTest, SelectItemMustBeGroupedOrAggregate) {
  auto bad = Run("SELECT name, COUNT(*) FROM people GROUP BY age");
  EXPECT_FALSE(bad.ok());
  auto also_bad = Run("SELECT name, COUNT(*) FROM people");
  EXPECT_FALSE(also_bad.ok());
}

TEST_F(PlannerTest, OrderBySortsBeforeProjection) {
  // Ordering by a column that is not selected.
  auto result = Run("SELECT name FROM people ORDER BY age DESC, name");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->Row(0)[0], Value::String("carol"));
  EXPECT_EQ(result->Row(1)[0], Value::String("ada"));
  EXPECT_EQ(result->Row(2)[0], Value::String("bob"));
  EXPECT_EQ(result->Row(3)[0], Value::String("dave"));
}

TEST_F(PlannerTest, DateCoercionInComparison) {
  auto result =
      Run("SELECT name FROM people WHERE joined < '2002-01-01'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rows = result->CanonicalRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], "ada");
  EXPECT_EQ(rows[1], "carol");
}

TEST_F(PlannerTest, JoinWithQualifiedColumns) {
  auto result = Run(
      "SELECT p.name, q.pet FROM people p JOIN pets q ON p.id = q.owner "
      "ORDER BY p.name, q.pet");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->Row(0)[0], Value::String("ada"));
  EXPECT_EQ(result->Row(0)[1], Value::String("cat"));
  EXPECT_EQ(result->Row(1)[1], Value::String("dog"));
  EXPECT_EQ(result->Row(2)[0], Value::String("carol"));
}

TEST_F(PlannerTest, JoinWithWhereAndAggregate) {
  auto result = Run(
      "SELECT COUNT(*) AS n FROM people p JOIN pets q ON p.id = q.owner "
      "WHERE p.age >= 30");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->Row(0)[0], Value::Int64(3));
}

TEST_F(PlannerTest, UnknownColumnsAndQualifiers) {
  EXPECT_FALSE(Run("SELECT nope FROM people").ok());
  // Unqualified but unique across the two tables: resolvable.
  EXPECT_TRUE(Run("SELECT pet FROM people p JOIN pets q ON p.id = q.owner")
                  .ok());
  // Unknown qualifier.
  EXPECT_FALSE(
      Run("SELECT z.name FROM people p JOIN pets q ON p.id = q.owner")
          .ok());
}

TEST_F(PlannerTest, SelfJoinAmbiguityDetected) {
  // Same table twice without distinct aliases -> duplicate alias error;
  // with aliases an unqualified shared column is ambiguous.
  EXPECT_FALSE(Run("SELECT id FROM people JOIN people ON id = id").ok());
  EXPECT_FALSE(
      Run("SELECT id FROM people a JOIN people b ON a.id = b.id").ok());
  EXPECT_TRUE(
      Run("SELECT a.id FROM people a JOIN people b ON a.id = b.id").ok());
}

TEST_F(PlannerTest, WhereTruthiness) {
  // Booleans are INT columns, so a numeric WHERE is accepted with
  // nonzero-is-true semantics (the SQLite convention)...
  auto numeric = Run("SELECT name FROM people WHERE age - 25");
  ASSERT_TRUE(numeric.ok());
  EXPECT_EQ(numeric->num_rows(), 2u);  // ages 30 and 35
  // ...but strings are not booleans.
  EXPECT_FALSE(Run("SELECT name FROM people WHERE name").ok());
}

TEST_F(PlannerTest, NonEquiJoinRejected) {
  EXPECT_FALSE(
      Run("SELECT p.name FROM people p JOIN pets q ON p.id > q.owner")
          .ok());
}

TEST_F(PlannerTest, LikeInQueries) {
  auto result = Run("SELECT name FROM people WHERE name LIKE '%a%'");
  ASSERT_TRUE(result.ok());
  auto rows = result->CanonicalRows();
  ASSERT_EQ(rows.size(), 3u);  // ada, carol, dave
}

TEST_F(PlannerTest, InAndBetweenEndToEnd) {
  auto result =
      Run("SELECT name FROM people WHERE id IN (1, 4) OR age BETWEEN "
          "34 AND 36");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->CanonicalRows(),
            (std::vector<std::string>{"ada", "carol", "dave"}));
}

TEST_F(PlannerTest, LimitOffsetEndToEnd) {
  auto result = Run("SELECT id FROM people ORDER BY id LIMIT 2 OFFSET 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->Row(0)[0], Value::Int64(2));
  EXPECT_EQ(result->Row(1)[0], Value::Int64(3));
}

TEST_F(PlannerTest, ScanRowLimitOnlyWhenScanRowsReachLimit) {
  EXPECT_EQ(RowLimitFor("SELECT id FROM people LIMIT 2"), 2u);
  EXPECT_EQ(RowLimitFor("SELECT id FROM people LIMIT 2 OFFSET 1"), 3u);
  EXPECT_EQ(RowLimitFor("SELECT id FROM people WHERE age > 1 LIMIT 2"), 2u);
  EXPECT_EQ(RowLimitFor("SELECT id FROM people"), UINT64_MAX);
  EXPECT_EQ(RowLimitFor("SELECT id FROM people ORDER BY id LIMIT 2"),
            UINT64_MAX);
  EXPECT_EQ(RowLimitFor("SELECT DISTINCT age FROM people LIMIT 2"),
            UINT64_MAX);
  EXPECT_EQ(RowLimitFor("SELECT COUNT(*) AS n FROM people LIMIT 2"),
            UINT64_MAX);
  EXPECT_EQ(RowLimitFor("SELECT age, COUNT(*) AS n FROM people "
                        "GROUP BY age LIMIT 1"),
            UINT64_MAX);
  const char* join =
      "SELECT p.name, q.pet FROM people p JOIN pets q ON p.id = q.owner "
      "LIMIT 1";
  EXPECT_EQ(RowLimitFor(join, "people"), UINT64_MAX);
  EXPECT_EQ(last_row_limit_.at("pets"), UINT64_MAX);
  // LIMIT + OFFSET saturates instead of wrapping.
  EXPECT_EQ(RowLimitFor("SELECT id FROM people LIMIT 9223372036854775807 "
                        "OFFSET 9223372036854775807"),
            UINT64_MAX - 1);
  auto stmt = ParseSelect("SELECT id FROM people LIMIT 1 OFFSET 5");
  ASSERT_TRUE(stmt.ok());
  stmt->limit = UINT64_MAX - 1;
  last_row_limit_.clear();
  auto plan = PlanSelect(*stmt, this);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(last_row_limit_.at("people"), UINT64_MAX);
  auto result = QueryResult::Drain(plan->get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(PlannerTest, DistinctDeduplicatesRows) {
  auto result = Run("SELECT DISTINCT age FROM people ORDER BY age");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->Row(0)[0], Value::Int64(25));
  EXPECT_EQ(result->Row(1)[0], Value::Int64(30));
  EXPECT_EQ(result->Row(2)[0], Value::Int64(35));

  // Multi-column DISTINCT keeps genuinely distinct combinations.
  auto multi = Run("SELECT DISTINCT age, age * 2 AS dbl FROM people");
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi->num_rows(), 3u);

  // Without duplicates DISTINCT is a no-op.
  auto all = Run("SELECT DISTINCT id FROM people");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 4u);
}

TEST_F(PlannerTest, HavingFiltersGroups) {
  auto result = Run(
      "SELECT age, COUNT(*) AS n FROM people GROUP BY age "
      "HAVING COUNT(*) > 1 ORDER BY age");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->Row(0)[0], Value::Int64(25));
  EXPECT_EQ(result->Row(0)[1], Value::Int64(2));
}

TEST_F(PlannerTest, HavingOnAliasAndGroupColumn) {
  auto by_alias = Run(
      "SELECT age, COUNT(*) AS n FROM people GROUP BY age HAVING n = 1");
  ASSERT_TRUE(by_alias.ok()) << by_alias.status().ToString();
  EXPECT_EQ(by_alias->num_rows(), 2u);  // ages 30 and 35

  auto by_group = Run(
      "SELECT age, COUNT(*) AS n FROM people GROUP BY age "
      "HAVING age >= 30 AND n = 1 ORDER BY age");
  ASSERT_TRUE(by_group.ok()) << by_group.status().ToString();
  ASSERT_EQ(by_group->num_rows(), 2u);
  EXPECT_EQ(by_group->Row(0)[0], Value::Int64(30));
}

TEST_F(PlannerTest, HavingErrors) {
  // HAVING without aggregation.
  EXPECT_FALSE(Run("SELECT name FROM people HAVING age > 1").ok());
  // HAVING referencing a non-output column.
  EXPECT_FALSE(
      Run("SELECT age, COUNT(*) AS n FROM people GROUP BY age "
          "HAVING name = 'ada'")
          .ok());
  // HAVING aggregate not present in the SELECT list.
  EXPECT_FALSE(
      Run("SELECT age, COUNT(*) AS n FROM people GROUP BY age "
          "HAVING SUM(id) > 3")
          .ok());
}

TEST_F(PlannerTest, HavingAggregatePresentInSelectWorks) {
  auto result = Run(
      "SELECT age, SUM(id) AS s FROM people GROUP BY age "
      "HAVING SUM(id) > 3 ORDER BY age");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Groups: 25 -> ids 2+4=6; 30 -> 1; 35 -> 3. Only 25 passes.
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->Row(0)[0], Value::Int64(25));
}

TEST_F(PlannerTest, JoinSplitsSingleTableConjunctsToTheirSide) {
  // Regression: join queries used to evaluate *every* WHERE conjunct
  // above the HashJoin. Single-table conjuncts must run on their own
  // side, below the join; only the genuinely cross-table conjunct may
  // see joined rows.
  std::string explain;
  PlannerOptions options;
  options.explain = &explain;
  auto plan = PlanSql(
      "SELECT p.name, q.pet FROM people p JOIN pets q ON p.id = q.owner "
      "WHERE p.age >= 30 AND q.pet LIKE '%o%' AND p.id + q.owner > 0",
      this, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto result = QueryResult::Drain(plan->get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Pairs: ada-cat, ada-dog, carol-fish; LIKE '%o%' keeps only dog.
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->Row(0)[0], Value::String("ada"));
  EXPECT_EQ(result->Row(0)[1], Value::String("dog"));

  size_t join_pos = explain.find("HASH JOIN");
  size_t age_pos = explain.find("FILTER (p.age >= 30)");
  size_t pet_pos = explain.find("FILTER (q.pet LIKE '%o%')");
  size_t cross_pos = explain.find("FILTER ((p.id + q.owner) > 0)");
  ASSERT_NE(join_pos, std::string::npos) << explain;
  ASSERT_NE(age_pos, std::string::npos) << explain;
  ASSERT_NE(pet_pos, std::string::npos) << explain;
  ASSERT_NE(cross_pos, std::string::npos) << explain;
  EXPECT_LT(age_pos, join_pos) << explain;
  EXPECT_LT(pet_pos, join_pos) << explain;
  EXPECT_GT(cross_pos, join_pos) << explain;
}

TEST_F(PlannerTest, JoinBuildSideConjunctRebasesCorrectly) {
  // A conjunct purely over the build (right) table must survive the
  // index rebase onto the build scan's own schema.
  auto result = Run(
      "SELECT p.name, q.pet FROM people p JOIN pets q ON p.id = q.owner "
      "WHERE q.pet = 'dog'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->Row(0)[0], Value::String("ada"));

  auto agg = Run(
      "SELECT COUNT(*) AS n FROM people p JOIN pets q ON p.id = q.owner "
      "WHERE p.age >= 30 AND q.pet <> 'fish'");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_EQ(agg->Row(0)[0], Value::Int64(2));  // ada-cat, ada-dog
}

TEST_F(PlannerTest, JoinSideConjunctsReorderBySelectivity) {
  // Regression: join queries used to bypass predicate reordering
  // entirely. Side conjuncts now reorder by the stats oracle.
  class FakeStats : public SelectivityEstimator {
   public:
    std::optional<double> EstimateSelectivity(
        const std::string&, const Expr& pred) const override {
      return pred.ToString().find("age") != std::string::npos
                 ? std::optional<double>(0.01)
                 : std::optional<double>(0.9);
    }
  };
  FakeStats stats;
  std::string explain;
  PlannerOptions options;
  options.stats = &stats;
  options.explain = &explain;
  auto plan = PlanSql(
      "SELECT p.name, q.pet FROM people p JOIN pets q ON p.id = q.owner "
      "WHERE p.id > 0 AND p.age >= 30",
      this, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  size_t age_pos = explain.find("FILTER (p.age >= 30)");
  size_t id_pos = explain.find("FILTER (p.id > 0)");
  ASSERT_NE(age_pos, std::string::npos) << explain;
  ASSERT_NE(id_pos, std::string::npos) << explain;
  EXPECT_LT(age_pos, id_pos) << explain;  // selective first

  auto result = QueryResult::Drain(plan->get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3u);  // ada-cat, ada-dog, carol-fish
}

TEST_F(PlannerTest, StatsReorderingPreservesSemantics) {
  /// A fake estimator claiming age predicates are highly selective.
  class FakeStats : public SelectivityEstimator {
   public:
    std::optional<double> EstimateSelectivity(
        const std::string&, const Expr& pred) const override {
      return pred.ToString().find("age") != std::string::npos
                 ? std::optional<double>(0.01)
                 : std::optional<double>(0.9);
    }
  };
  FakeStats stats;
  PlannerOptions options;
  options.stats = &stats;
  auto plan = PlanSql(
      "SELECT name FROM people WHERE id > 0 AND age = 25", this, options);
  ASSERT_TRUE(plan.ok());
  auto result = QueryResult::Drain(plan->get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->CanonicalRows(),
            (std::vector<std::string>{"bob", "dave"}));
}

}  // namespace
}  // namespace nodb
