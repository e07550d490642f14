#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sql/executor.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "storage/database.h"

namespace tarpit {
namespace {

namespace fs = std::filesystem;

// ---------- Lexer ----------

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT * FROM t WHERE id = 3;");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> types;
  for (const Token& t : *tokens) types.push_back(t.type);
  EXPECT_EQ(types,
            (std::vector<TokenType>{
                TokenType::kSelect, TokenType::kStar, TokenType::kFrom,
                TokenType::kIdentifier, TokenType::kWhere,
                TokenType::kIdentifier, TokenType::kEq,
                TokenType::kIntLiteral, TokenType::kSemicolon,
                TokenType::kEof}));
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = Tokenize("select Select SELECT");
  ASSERT_TRUE(tokens.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*tokens)[i].type, TokenType::kSelect);
  }
}

TEST(LexerTest, NumericLiterals) {
  auto tokens = Tokenize("42 -17 3.5 -2.5e3 1e-2");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].int_value, -17);
  EXPECT_DOUBLE_EQ((*tokens)[2].double_value, 3.5);
  EXPECT_DOUBLE_EQ((*tokens)[3].double_value, -2500.0);
  EXPECT_DOUBLE_EQ((*tokens)[4].double_value, 0.01);
}

TEST(LexerTest, StringLiteralWithEscapedQuote) {
  auto tokens = Tokenize("'it''s here'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kStringLiteral);
  EXPECT_EQ((*tokens)[0].text, "it's here");
}

TEST(LexerTest, ComparisonOperators) {
  auto tokens = Tokenize("< <= > >= = != <>");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> types;
  for (const Token& t : *tokens) types.push_back(t.type);
  EXPECT_EQ(types, (std::vector<TokenType>{
                       TokenType::kLt, TokenType::kLtEq, TokenType::kGt,
                       TokenType::kGtEq, TokenType::kEq, TokenType::kNotEq,
                       TokenType::kNotEq, TokenType::kEof}));
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
  EXPECT_FALSE(Tokenize("select @").ok());
  EXPECT_FALSE(Tokenize("99999999999999999999").ok());  // Overflow.
}

// ---------- Parser ----------

TEST(ParserTest, CreateTable) {
  auto stmt = Parser::Parse(
      "CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, gross DOUBLE)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, Statement::Kind::kCreateTable);
  const auto& ct = stmt->create_table;
  EXPECT_EQ(ct.table, "movies");
  ASSERT_EQ(ct.columns.size(), 3u);
  EXPECT_TRUE(ct.columns[0].primary_key);
  EXPECT_EQ(ct.columns[0].type, ColumnType::kInt64);
  EXPECT_EQ(ct.columns[1].type, ColumnType::kString);
  EXPECT_EQ(ct.columns[2].type, ColumnType::kDouble);
}

TEST(ParserTest, InsertMultiRow) {
  auto stmt = Parser::Parse(
      "INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, Statement::Kind::kInsert);
  EXPECT_EQ(stmt->insert.columns,
            (std::vector<std::string>{"id", "name"}));
  ASSERT_EQ(stmt->insert.rows.size(), 2u);
  EXPECT_EQ(stmt->insert.rows[1][0].AsInt(), 2);
  EXPECT_EQ(stmt->insert.rows[1][1].AsString(), "b");
}

TEST(ParserTest, SelectWithWhereOrderLimit) {
  auto stmt = Parser::Parse(
      "SELECT id, title FROM movies WHERE gross > 100.0 AND id < 50 "
      "ORDER BY gross DESC LIMIT 10");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
  const auto& sel = stmt->select;
  EXPECT_EQ(sel.columns, (std::vector<std::string>{"id", "title"}));
  ASSERT_NE(sel.where, nullptr);
  EXPECT_EQ(sel.where->op, BinaryOp::kAnd);
  ASSERT_TRUE(sel.order_by.has_value());
  EXPECT_EQ(sel.order_by->column, "gross");
  EXPECT_FALSE(sel.order_by->ascending);
  EXPECT_EQ(sel.limit, 10u);
}

TEST(ParserTest, ExprPrecedenceAndParens) {
  auto stmt =
      Parser::Parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(stmt.ok());
  // OR binds loosest: (a=1) OR ((b=2) AND (c=3)).
  const Expr* e = stmt->select.where.get();
  ASSERT_EQ(e->op, BinaryOp::kOr);
  EXPECT_EQ(e->rhs->op, BinaryOp::kAnd);

  auto stmt2 =
      Parser::Parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_EQ(stmt2->select.where->op, BinaryOp::kAnd);
}

TEST(ParserTest, NotExpression) {
  auto stmt = Parser::Parse("SELECT * FROM t WHERE NOT a = 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.where->kind, Expr::Kind::kNot);
}

TEST(ParserTest, UpdateAndDelete) {
  auto up = Parser::Parse("UPDATE t SET a = 5, b = 'x' WHERE id = 1");
  ASSERT_TRUE(up.ok());
  ASSERT_EQ(up->kind, Statement::Kind::kUpdate);
  EXPECT_EQ(up->update.assignments.size(), 2u);

  auto del = Parser::Parse("DELETE FROM t WHERE id > 10");
  ASSERT_TRUE(del.ok());
  ASSERT_EQ(del->kind, Statement::Kind::kDelete);
  EXPECT_NE(del->del.where, nullptr);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parser::Parse("").ok());
  EXPECT_FALSE(Parser::Parse("SELEC * FROM t").ok());
  EXPECT_FALSE(Parser::Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parser::Parse("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(Parser::Parse("SELECT * FROM t garbage").ok());
  EXPECT_FALSE(Parser::Parse("INSERT INTO t VALUES (1").ok());
  EXPECT_FALSE(Parser::Parse("CREATE TABLE t (x BOGUS)").ok());
  EXPECT_FALSE(Parser::Parse("SELECT * FROM t LIMIT -3").ok());
}

// ---------- Planner ----------

ExprPtr ParseWhere(const std::string& cond) {
  auto stmt = Parser::Parse("SELECT * FROM t WHERE " + cond);
  EXPECT_TRUE(stmt.ok()) << cond;
  return std::move(stmt->select.where);
}

TEST(PlannerTest, PointLookupFromEquality) {
  ExprPtr e = ParseWhere("id = 42");
  AccessPlan plan = PlanAccess(e.get(), "id");
  EXPECT_EQ(plan.kind, AccessPathKind::kPointLookup);
  EXPECT_EQ(plan.point_key, 42);
}

TEST(PlannerTest, FlippedComparison) {
  ExprPtr e = ParseWhere("10 <= id AND 20 > id");
  AccessPlan plan = PlanAccess(e.get(), "id");
  EXPECT_EQ(plan.kind, AccessPathKind::kRangeScan);
  EXPECT_EQ(plan.range_lo, 10);
  EXPECT_EQ(plan.range_hi, 19);
}

TEST(PlannerTest, RangeFromConjunction) {
  ExprPtr e = ParseWhere("id >= 5 AND id <= 15 AND name = 'x'");
  AccessPlan plan = PlanAccess(e.get(), "id");
  EXPECT_EQ(plan.kind, AccessPathKind::kRangeScan);
  EXPECT_EQ(plan.range_lo, 5);
  EXPECT_EQ(plan.range_hi, 15);
}

TEST(PlannerTest, ContradictionIsEmpty) {
  ExprPtr e = ParseWhere("id = 1 AND id = 2");
  AccessPlan plan = PlanAccess(e.get(), "id");
  EXPECT_TRUE(plan.empty);

  ExprPtr e2 = ParseWhere("id > 10 AND id < 5");
  EXPECT_TRUE(PlanAccess(e2.get(), "id").empty);
}

TEST(PlannerTest, OrForcesFullScan) {
  ExprPtr e = ParseWhere("id = 1 OR id = 2");
  AccessPlan plan = PlanAccess(e.get(), "id");
  EXPECT_EQ(plan.kind, AccessPathKind::kFullScan);
}

TEST(PlannerTest, NonPkColumnForcesFullScan) {
  ExprPtr e = ParseWhere("name = 'a'");
  EXPECT_EQ(PlanAccess(e.get(), "id").kind, AccessPathKind::kFullScan);
  EXPECT_EQ(PlanAccess(nullptr, "id").kind, AccessPathKind::kFullScan);
}

TEST(PlannerTest, AdjacentBoundsCollapseToPoint) {
  ExprPtr e = ParseWhere("id >= 7 AND id <= 7");
  AccessPlan plan = PlanAccess(e.get(), "id");
  EXPECT_EQ(plan.kind, AccessPathKind::kPointLookup);
  EXPECT_EQ(plan.point_key, 7);
}

// ---------- Executor (integration) ----------

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tarpit_sql_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    auto db = Database::Open(dir_.string());
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    exec_ = std::make_unique<Executor>(db_.get());
  }
  void TearDown() override {
    exec_.reset();
    db_.reset();
    fs::remove_all(dir_);
  }

  QueryResult MustExec(const std::string& sql) {
    auto r = exec_->ExecuteSql(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  fs::path dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(ExecutorTest, EndToEndCrud) {
  MustExec(
      "CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, gross DOUBLE)");
  QueryResult ins = MustExec(
      "INSERT INTO movies VALUES (1, 'Spider-Man', 403.7), "
      "(2, 'Signs', 228.0), (3, 'Ice Age', 176.4)");
  EXPECT_EQ(ins.affected, 3u);
  EXPECT_EQ(ins.touched_keys, (std::vector<int64_t>{1, 2, 3}));

  QueryResult sel = MustExec("SELECT title FROM movies WHERE id = 2");
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(sel.rows[0][0].AsString(), "Signs");
  EXPECT_EQ(sel.plan.kind, AccessPathKind::kPointLookup);

  QueryResult up =
      MustExec("UPDATE movies SET gross = 229.5 WHERE id = 2");
  EXPECT_EQ(up.affected, 1u);
  EXPECT_EQ(MustExec("SELECT gross FROM movies WHERE id = 2")
                .rows[0][0]
                .AsDouble(),
            229.5);

  QueryResult del = MustExec("DELETE FROM movies WHERE id = 1");
  EXPECT_EQ(del.affected, 1u);
  EXPECT_EQ(MustExec("SELECT * FROM movies").rows.size(), 2u);
}

TEST_F(ExecutorTest, SelectStarProjectsAllColumns) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, a TEXT, b DOUBLE)");
  MustExec("INSERT INTO t VALUES (1, 'x', 2.0)");
  QueryResult r = MustExec("SELECT * FROM t");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"id", "a", "b"}));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].size(), 3u);
}

TEST_F(ExecutorTest, InsertWithColumnSubsetFillsNulls) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, a TEXT, b DOUBLE)");
  MustExec("INSERT INTO t (id) VALUES (5)");
  QueryResult r = MustExec("SELECT a, b FROM t WHERE id = 5");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(ExecutorTest, WhereOnNonPkColumn) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, grade TEXT)");
  MustExec(
      "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a'), (4, 'c')");
  QueryResult r = MustExec("SELECT id FROM t WHERE grade = 'a'");
  EXPECT_EQ(r.plan.kind, AccessPathKind::kFullScan);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
}

TEST_F(ExecutorTest, RangeScanUsesIndex) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)");
  for (int i = 0; i < 100; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i * 1.5) + ")");
  }
  QueryResult r = MustExec("SELECT id FROM t WHERE id >= 10 AND id < 20");
  EXPECT_EQ(r.plan.kind, AccessPathKind::kRangeScan);
  EXPECT_EQ(r.rows.size(), 10u);
}

TEST_F(ExecutorTest, OrderByAndLimit) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)");
  MustExec(
      "INSERT INTO t VALUES (1, 5.0), (2, 1.0), (3, 9.0), (4, 3.0)");
  QueryResult r = MustExec("SELECT id FROM t ORDER BY v DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[1][0].AsInt(), 1);
}

TEST_F(ExecutorTest, LimitWithoutOrderStopsEarly) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)");
  for (int i = 0; i < 50; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", 1.0)");
  }
  QueryResult r = MustExec("SELECT id FROM t LIMIT 5");
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.touched_keys.size(), 5u);
}

TEST_F(ExecutorTest, NullComparisonsAreFalse) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)");
  MustExec("INSERT INTO t (id) VALUES (1)");
  MustExec("INSERT INTO t VALUES (2, 7.0)");
  EXPECT_EQ(MustExec("SELECT id FROM t WHERE v = 7.0").rows.size(), 1u);
  EXPECT_EQ(MustExec("SELECT id FROM t WHERE v != 7.0").rows.size(), 0u);
  // NOT (NULL = x) is true under two-valued logic; documented behavior.
  EXPECT_EQ(MustExec("SELECT id FROM t WHERE NOT v = 7.0").rows.size(),
            1u);
}

TEST_F(ExecutorTest, UpdatePkRejected) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)");
  MustExec("INSERT INTO t VALUES (1, 1.0)");
  auto r = exec_->ExecuteSql("UPDATE t SET id = 2 WHERE id = 1");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(ExecutorTest, DeleteAllWithoutWhere) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)");
  MustExec("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0)");
  QueryResult r = MustExec("DELETE FROM t");
  EXPECT_EQ(r.affected, 3u);
  EXPECT_EQ(MustExec("SELECT * FROM t").rows.size(), 0u);
}

TEST_F(ExecutorTest, TypeMismatchInWhereFails) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)");
  MustExec("INSERT INTO t VALUES (1, 1.0)");
  EXPECT_FALSE(exec_->ExecuteSql("SELECT * FROM t WHERE v = 'str'").ok());
}

TEST_F(ExecutorTest, UnknownTableAndColumnErrors) {
  EXPECT_TRUE(exec_->ExecuteSql("SELECT * FROM ghost")
                  .status()
                  .IsNotFound());
  MustExec("CREATE TABLE t (id INT PRIMARY KEY)");
  EXPECT_FALSE(exec_->ExecuteSql("SELECT nope FROM t").ok());
  EXPECT_FALSE(
      exec_->ExecuteSql("INSERT INTO t (nope) VALUES (1)").ok());
}

TEST_F(ExecutorTest, CreateTableRequiresPk) {
  EXPECT_FALSE(exec_->ExecuteSql("CREATE TABLE t (a TEXT)").ok());
  EXPECT_FALSE(exec_->ExecuteSql(
                       "CREATE TABLE t (a INT PRIMARY KEY, "
                       "b INT PRIMARY KEY)")
                   .ok());
}

TEST_F(ExecutorTest, DuplicatePkInsertFails) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY)");
  MustExec("INSERT INTO t VALUES (1)");
  EXPECT_EQ(exec_->ExecuteSql("INSERT INTO t VALUES (1)").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ExecutorTest, EmptyPlanShortCircuits) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY)");
  MustExec("INSERT INTO t VALUES (1), (2)");
  QueryResult r = MustExec("SELECT * FROM t WHERE id = 1 AND id = 2");
  EXPECT_TRUE(r.plan.empty);
  EXPECT_EQ(r.rows.size(), 0u);
}

TEST_F(ExecutorTest, TouchedKeysMatchResults) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)");
  MustExec("INSERT INTO t VALUES (10, 1.0), (20, 2.0), (30, 3.0)");
  QueryResult r = MustExec("SELECT v FROM t WHERE id >= 20");
  EXPECT_EQ(r.touched_keys, (std::vector<int64_t>{20, 30}));
  QueryResult up = MustExec("UPDATE t SET v = 0.0 WHERE id >= 20");
  EXPECT_EQ(up.touched_keys, (std::vector<int64_t>{20, 30}));
  QueryResult del = MustExec("DELETE FROM t WHERE id = 10");
  EXPECT_EQ(del.touched_keys, (std::vector<int64_t>{10}));
}

TEST_F(ExecutorTest, InListUsesMultiPointPlan) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)");
  for (int i = 0; i < 20; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i * 1.0) + ")");
  }
  QueryResult r = MustExec("SELECT id FROM t WHERE id IN (3, 7, 11, 7)");
  EXPECT_EQ(r.plan.kind, AccessPathKind::kMultiPoint);
  ASSERT_EQ(r.rows.size(), 3u);  // Duplicate 7 deduped.
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[2][0].AsInt(), 11);
  // Missing keys are skipped silently.
  QueryResult miss = MustExec("SELECT id FROM t WHERE id IN (99, 5)");
  EXPECT_EQ(miss.rows.size(), 1u);
}

TEST_F(ExecutorTest, InListOnNonPkColumnFiltersFullScan) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)");
  MustExec("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  QueryResult r =
      MustExec("SELECT id FROM t WHERE name IN ('a', 'c', 'z')");
  EXPECT_EQ(r.plan.kind, AccessPathKind::kFullScan);
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, InListTypeMismatchFails) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)");
  MustExec("INSERT INTO t VALUES (1, 'a')");
  EXPECT_FALSE(
      exec_->ExecuteSql("SELECT * FROM t WHERE name IN (1, 2)").ok());
}

TEST_F(ExecutorTest, NotInViaNotOperator) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY)");
  MustExec("INSERT INTO t VALUES (1), (2), (3), (4)");
  QueryResult r =
      MustExec("SELECT id FROM t WHERE NOT id IN (2, 3)");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 4);
}

TEST_F(ExecutorTest, InListCombinedWithRangeUsesRange) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY)");
  for (int i = 0; i < 10; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  // The PK range wins planning; the IN acts as residual filter.
  QueryResult r = MustExec(
      "SELECT id FROM t WHERE id >= 2 AND id <= 8 AND id IN (1, 4, 6)");
  EXPECT_EQ(r.plan.kind, AccessPathKind::kRangeScan);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);
  EXPECT_EQ(r.rows[1][0].AsInt(), 6);
}

TEST_F(ExecutorTest, ExplainReportsPlanWithoutExecuting) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, city TEXT)");
  MustExec("INSERT INTO t VALUES (1, 'a'), (2, 'b')");
  QueryResult r = MustExec("EXPLAIN SELECT * FROM t WHERE id = 1");
  ASSERT_GE(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "PointLookup(1)");
  EXPECT_EQ(r.touched_keys.size(), 0u);  // Nothing executed/charged.

  MustExec("CREATE INDEX ON t (city)");
  QueryResult r2 = MustExec("EXPLAIN SELECT * FROM t WHERE city = 'a'");
  EXPECT_EQ(r2.rows[0][0].AsString(), "SecondaryLookup(city = 'a')");
  QueryResult r3 = MustExec("EXPLAIN DELETE FROM t");
  EXPECT_EQ(r3.rows[0][0].AsString(), "FullScan");
  // Table contents untouched by the explained delete.
  EXPECT_EQ(MustExec("SELECT COUNT(*) FROM t").rows[0][0].AsInt(), 2);
  EXPECT_FALSE(exec_->ExecuteSql("EXPLAIN INSERT INTO t VALUES (9, 'x')")
                   .ok());
}

TEST_F(ExecutorTest, BetweenDesugarsToRangeScan) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)");
  for (int i = 0; i < 30; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i * 0.5) + ")");
  }
  QueryResult r = MustExec("SELECT id FROM t WHERE id BETWEEN 5 AND 9");
  EXPECT_EQ(r.plan.kind, AccessPathKind::kRangeScan);
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  EXPECT_EQ(r.rows[4][0].AsInt(), 9);
  // Non-PK BETWEEN filters a full scan.
  QueryResult r2 =
      MustExec("SELECT id FROM t WHERE v BETWEEN 1.0 AND 2.0");
  EXPECT_EQ(r2.plan.kind, AccessPathKind::kFullScan);
  EXPECT_EQ(r2.rows.size(), 3u);  // v in {1.0, 1.5, 2.0}.
  EXPECT_FALSE(exec_->ExecuteSql("SELECT * FROM t WHERE id BETWEEN 5")
                   .ok());
}

}  // namespace
}  // namespace tarpit
